package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"github.com/sof-repro/sof/internal/types"
)

// span is one timed interval recorded by the benchmark around its calls
// into the program; the program itself is not instrumented. Instants are
// nanoseconds since the pass began. Parent 0 is the pass.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanTotals is a span name's count, total duration and self time (the
// duration not covered by its child spans).
type spanTotals struct {
	Count   int   `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

// boundary is the registry and process counters read at one window edge.
type boundary struct {
	At       int64              `json:"at_ns"`
	CPUNs    int64              `json:"cpu_ns"`
	Mallocs  uint64             `json:"mallocs"`
	Registry map[string]float64 `json:"registry"`
}

type traceLog struct {
	epoch      time.Time
	Workload   string                `json:"workload"`
	Seed       int64                 `json:"seed"`
	Boundaries []boundary            `json:"boundaries"`
	Totals     map[string]spanTotals `json:"span_totals"`
	Spans      []span                `json:"spans"`
}

// The tracker records spans while the pass runs; these are its hooks.

// openSpans starts the span tree of a sampled request: the request
// itself, the time inside Cluster.Submit, and a commit span for every
// process whose commit the poller saw before the request was registered.
// Caller holds t.mu.
func (t *tracker) openSpans(r *request) {
	t.spans = append(t.spans, span{Name: "request", Req: r.id.String(), Start: r.due})
	r.span = len(t.spans)
	t.spans = append(t.spans, span{Parent: r.span, Name: "loadgen.submit", Req: r.id.String(),
		Start: r.sent, End: r.sent + r.submit})
	for node, at := range r.at {
		if at != 0 {
			t.commitSpan(r, node, at)
		}
	}
}

// commitSpan records process node's commit of r: from Submit's return to
// the CommitEvent's instant. Caller holds t.mu.
func (t *tracker) commitSpan(r *request, node int, at int64) {
	t.spans = append(t.spans, span{Parent: r.span, Name: fmt.Sprintf("commit.%v", types.NodeID(node)),
		Req: r.id.String(), Start: r.sent + r.submit, End: at})
}

// closeSpans ends each request span at its operation's completion, or at
// the end of the drain if it never completed, and returns the spans.
func (t *tracker) closeSpans(drained int64) []span {
	for _, r := range t.sent {
		if r.span != 0 {
			t.spans[r.span-1].End = r.done
		}
	}
	for i := range t.spans {
		if t.spans[i].End == 0 {
			t.spans[i].End = drained
		}
	}
	return t.spans
}

// newTraceLog gathers the trials' spans under pass-wide IDs, with the
// counters read at each trial's window edges.
func newTraceLog(epoch time.Time, w workload, seed int64, trials []*trialReport) *traceLog {
	tl := &traceLog{epoch: epoch, Workload: w.Name, Seed: seed}
	for _, tr := range trials {
		base := len(tl.Spans)
		for i, s := range tr.Spans {
			s.ID = base + i + 1
			if s.Parent != 0 {
				s.Parent += base
			}
			tl.Spans = append(tl.Spans, s)
		}
		tl.Boundaries = append(tl.Boundaries, tr.Boundaries...)
	}
	return tl
}

// layer records one layer-drive call batch, parented to the pass.
func (tl *traceLog) layer(name string, start, end time.Time) {
	tl.Spans = append(tl.Spans, span{ID: len(tl.Spans) + 1, Name: "layer." + name,
		Start: int64(start.Sub(tl.epoch)), End: int64(end.Sub(tl.epoch))})
}

// totals computes per-name counts, durations and self times. A span's
// self time is its duration minus the part its children cover.
func (tl *traceLog) totals() {
	children := make(map[int][]span)
	for _, s := range tl.Spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	tl.Totals = make(map[string]spanTotals)
	for _, s := range tl.Spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, upTo := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, upTo), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		tot := tl.Totals[s.Name]
		tot.Count++
		tot.TotalNs += s.End - s.Start
		tot.SelfNs += s.End - s.Start - covered
		tl.Totals[s.Name] = tot
	}
}

func (tl *traceLog) write(path string) error {
	tl.totals()
	data, err := json.Marshal(tl)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
