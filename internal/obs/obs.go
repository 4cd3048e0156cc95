// Package obs is the dependency-free metrics layer: an instrument
// registry (atomic counters, gauges and fixed-bucket histograms, plus
// function-backed instruments that read existing counters at scrape
// time), point-in-time Collect() snapshots, a hand-rolled Prometheus
// text-format (expfmt 0.0.4) writer, and the /metrics /healthz /readyz
// HTTP handlers sofnode serves.
//
// The registry is built for a hot path that must stay allocation-free:
// instruments are registered once at construction time and held as
// direct pointers by the emitting layer, so recording an event is one
// atomic operation — no map lookup, no interface dispatch, no
// allocation. Every instrument method is nil-safe (a nil *Counter is a
// no-op), so layers built without a registry pay one predictable branch
// per event and nothing else.
//
// Function-backed instruments (CounterFunc/GaugeFunc) exist for state
// that already has a thread-safe owner — the transport's per-peer
// atomics, a WAL's mutex-guarded segment list, a channel's depth. They
// cost nothing until Collect() evaluates them, which is the idiomatic
// way to promote an existing shutdown-snapshot Stats() into a live
// gauge.
package obs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name="value" pair attached to a series.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind is the instrument family type, mirroring the Prometheus TYPE.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one. Nil-safe: a nil Counter is a no-op.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds d.
func (c *Counter) Add(d uint64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64-valued gauge (integers round-trip
// exactly up to 2^53).
type Gauge struct{ bits atomic.Uint64 }

// Set stores v. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// SetInt stores an integer value.
func (g *Gauge) SetInt(v int64) { g.Set(float64(v)) }

// Add adds d (CAS loop; uncontended in practice).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-boundary histogram: bounds are upper limits
// (the +Inf bucket is implicit), counts are per-bucket atomics, and the
// sum is an atomic float. Observe is a linear scan over a handful of
// bounds plus two atomic adds — no allocation, no lock.
//
// A Histogram is usable standalone (NewHistogram) for bench summaries,
// or registered via Registry.Histogram for exposition.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64   // float64 bits
	count  atomic.Uint64
}

// NewHistogram returns a standalone histogram over the given ascending
// upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// DefBuckets are general-purpose latency bounds in seconds, from 100µs
// to 10s — wide enough for both a submit path and a WAL fsync.
func DefBuckets() []float64 {
	return []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
		0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 10}
}

// Observe records one sample. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Bucket is one cumulative histogram bucket: the count of samples at or
// below UpperBound (math.Inf(1) for the last).
type Bucket struct {
	UpperBound float64
	Count      uint64 // cumulative
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Buckets []Bucket
	Sum     float64
	Count   uint64
}

// Snapshot returns cumulative buckets, sum and count.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Buckets: make([]Bucket, len(h.bounds)+1),
		Sum:     math.Float64frombits(h.sum.Load()),
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		s.Buckets[i] = Bucket{UpperBound: ub, Count: cum}
	}
	s.Count = s.Buckets[len(s.Buckets)-1].Count
	return s
}

// Quantile estimates the q-quantile (0..1) by linear interpolation
// inside the bucket that holds it; samples beyond the last finite bound
// report that bound. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	s := h.Snapshot()
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	prevCount, prevBound := uint64(0), 0.0
	for _, b := range s.Buckets {
		if float64(b.Count) >= rank {
			if math.IsInf(b.UpperBound, 1) {
				return prevBound
			}
			span := float64(b.Count - prevCount)
			if span == 0 {
				return b.UpperBound
			}
			frac := (rank - float64(prevCount)) / span
			return prevBound + frac*(b.UpperBound-prevBound)
		}
		prevCount, prevBound = b.Count, b.UpperBound
	}
	return prevBound
}

// String renders a one-line latency summary for bench output, treating
// samples as seconds.
func (h *Histogram) String() string {
	s := h.Snapshot()
	if s.Count == 0 {
		return "count=0"
	}
	mean := time.Duration(s.Sum / float64(s.Count) * float64(time.Second))
	dur := func(q float64) time.Duration {
		return time.Duration(h.Quantile(q) * float64(time.Second))
	}
	return fmt.Sprintf("count=%d mean=%v p50~%v p90~%v p99~%v",
		s.Count, mean.Round(time.Microsecond), dur(0.50).Round(time.Microsecond),
		dur(0.90).Round(time.Microsecond), dur(0.99).Round(time.Microsecond))
}

// series is one labeled instrument inside a family.
type series struct {
	labels  []Label
	key     string
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	ctrFn   func() uint64
	gaugeFn func() float64
}

type family struct {
	name, help string
	kind       Kind
	series     map[string]*series
}

// Registry holds named instrument families. Registration (Counter,
// Gauge, ...) is mutex-guarded and intended for construction time;
// the returned instruments are lock-free. All methods are nil-safe, so
// a layer wired with a nil *Registry records nothing.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte(1)
		b.WriteString(l.Value)
		b.WriteByte(2)
	}
	return b.String()
}

// register returns the series for (name, labels), creating family and
// series as needed. Re-registering the same name+labels returns the
// existing series (so a restarted component re-attaches to its
// instruments); registering the same name with a different kind panics
// — that is a programming error, caught at construction time.
func (r *Registry) register(name, help string, kind Kind, labels []Label) *series {
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: %s registered as %v, re-registered as %v", name, f.kind, kind))
	}
	key := labelKey(sorted)
	s := f.series[key]
	if s == nil {
		s = &series{labels: sorted, key: key}
		f.series[key] = s
	}
	return s
}

// Counter registers (or re-attaches to) a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	var c *Counter
	r.attach(name, help, KindCounter, labels, func(s *series) {
		if s.counter == nil {
			s.counter = &Counter{}
		}
		c = s.counter
	})
	return c
}

// Gauge registers (or re-attaches to) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	var g *Gauge
	r.attach(name, help, KindGauge, labels, func(s *series) {
		if s.gauge == nil {
			s.gauge = &Gauge{}
		}
		g = s.gauge
	})
	return g
}

// Histogram registers (or re-attaches to) a fixed-boundary histogram
// series.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	var h *Histogram
	r.attach(name, help, KindHistogram, labels, func(s *series) {
		if s.hist == nil {
			s.hist = NewHistogram(bounds)
		}
		h = s.hist
	})
	return h
}

// CounterFunc registers a counter series whose value is read from fn at
// Collect() time. fn must be safe to call from any goroutine. Use it to
// promote an existing thread-safe counter (an atomic a layer already
// keeps) without touching that layer's hot path. Re-registering replaces
// the function — a restarted component's series reads its new
// incarnation's state.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	if r == nil {
		return
	}
	r.attach(name, help, KindCounter, labels, func(s *series) { s.ctrFn = fn })
}

// GaugeFunc registers a gauge series whose value is read from fn at
// Collect() time. fn must be safe to call from any goroutine.
// Re-registering replaces the function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.attach(name, help, KindGauge, labels, func(s *series) { s.gaugeFn = fn })
}

// attach runs bind on the (name, labels) series under the registry
// mutex, so instrument creation and func replacement never race a
// concurrent Collect (restarted components re-register while scrapes
// run).
func (r *Registry) attach(name, help string, kind Kind, labels []Label, bind func(*series)) {
	s := r.register(name, help, kind, labels)
	r.mu.Lock()
	bind(s)
	r.mu.Unlock()
}

// Sample is one collected series: its labels and either a scalar Value
// (counter, gauge) or a histogram snapshot.
type Sample struct {
	Labels    []Label
	Value     float64
	Histogram *HistogramSnapshot // non-nil for histogram families
}

// Family is one collected metric family, samples sorted by label
// values.
type Family struct {
	Name, Help string
	Kind       Kind
	Samples    []Sample
}

// Collect snapshots every registered series, families sorted by name
// and samples by label key. Function-backed instruments are evaluated
// here. Safe for concurrent use with the hot path; nil-safe.
func (r *Registry) Collect() []Family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make([]Family, 0, len(fams))
	for _, f := range fams {
		// Copy each series' bindings under the mutex (re-registration
		// replaces func bindings concurrently), then evaluate the
		// functions unlocked — they may take their component's own locks.
		r.mu.Lock()
		ser := make([]series, 0, len(f.series))
		for _, s := range f.series {
			ser = append(ser, *s)
		}
		r.mu.Unlock()
		sort.Slice(ser, func(i, j int) bool { return ser[i].key < ser[j].key })
		cf := Family{Name: f.name, Help: f.help, Kind: f.kind}
		for _, s := range ser {
			sm := Sample{Labels: s.labels}
			if s.hist != nil {
				snap := s.hist.Snapshot()
				sm.Histogram = &snap
			} else {
				sm.Value = s.scalar()
			}
			cf.Samples = append(cf.Samples, sm)
		}
		out = append(out, cf)
	}
	return out
}

// scalar evaluates a counter or gauge series (0 for a histogram).
func (s *series) scalar() float64 {
	switch {
	case s.ctrFn != nil:
		return float64(s.ctrFn())
	case s.gaugeFn != nil:
		return s.gaugeFn()
	case s.counter != nil:
		return float64(s.counter.Value())
	case s.gauge != nil:
		return s.gauge.Value()
	}
	return 0
}

// Value is the read-only lookup: the sum of family name's counter or
// gauge series whose label set includes every given label, so a partial
// label set aggregates (sof_ingress_shed_total by node sums its reasons).
// It registers nothing — a probe or a test reads an instrument without
// restating its kind and help text — and returns 0 for a nil registry, an
// unknown family or a histogram.
func (r *Registry) Value(name string, labels ...Label) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	var match []series
	if f := r.families[name]; f != nil {
	next:
		for _, s := range f.series {
			for _, want := range labels {
				if !slices.Contains(s.labels, want) {
					continue next
				}
			}
			match = append(match, *s)
		}
	}
	r.mu.Unlock()
	// Like Collect: bindings copied under the mutex, functions evaluated
	// unlocked (they may take their component's own locks).
	var total float64
	for i := range match {
		total += match[i].scalar()
	}
	return total
}
