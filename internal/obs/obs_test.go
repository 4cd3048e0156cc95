package obs

import (
	"bytes"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// buildRegistry assembles a registry exercising every instrument kind,
// label escaping, and func-backed promotion — the golden fixture.
func buildRegistry() *Registry {
	r := NewRegistry()
	c := r.Counter("sof_commits_total", "Committed entries.", L("node", "0"), L("group", "1"))
	c.Add(42)
	r.Counter("sof_commits_total", "Committed entries.", L("node", "0"), L("group", "0")).Add(7)
	g := r.Gauge("sof_commit_watermark", "Highest contiguously delivered sequence.", L("node", "0"))
	g.SetInt(1024)
	r.Gauge("sof_batch_fill_ratio", "Fill ratio of the last closed batch.", L("node", "0")).Set(0.625)
	r.GaugeFunc("sof_peer_queue_depth", "Frames waiting in the peer's send queue.",
		func() float64 { return 3 }, L("node", "0"), L("peer", "2"))
	r.CounterFunc("sof_peer_dropped_total", "Frames dropped at a full send queue.",
		func() uint64 { return 5 }, L("node", "0"), L("peer", "2"))
	h := r.Histogram("sof_wal_fsync_seconds", "WAL group-commit fsync latency.",
		[]float64{0.001, 0.01, 0.1}, L("node", "0"), L("wal", "proto"))
	h.Observe(0.0004)
	h.Observe(0.002)
	h.Observe(0.002)
	h.Observe(0.25)
	// Label values that need escaping: backslash, quote, newline.
	r.Gauge("sof_escape_check", "Label escaping.", L("path", `C:\tmp`+"\n"+`"x"`)).Set(1)
	return r
}

func TestExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteText(&buf, buildRegistry().Collect()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition differs from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestExpositionParsesBack(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteText(&buf, buildRegistry().Collect()); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseText(buf.Bytes())
	if err != nil {
		t.Fatalf("own exposition does not parse: %v", err)
	}
	esc := fams["sof_escape_check"]
	if esc == nil || len(esc.Samples) != 1 {
		t.Fatalf("escape-check family missing: %+v", esc)
	}
	if got := esc.Samples[0].Labels["path"]; got != `C:\tmp`+"\n"+`"x"` {
		t.Errorf("label value did not round-trip: %q", got)
	}
	h := fams["sof_wal_fsync_seconds"]
	if h == nil || h.Kind != "histogram" {
		t.Fatalf("histogram family missing: %+v", h)
	}
	// 3 finite buckets + +Inf + _sum + _count = 6 samples.
	if len(h.Samples) != 6 {
		t.Errorf("histogram samples = %d, want 6", len(h.Samples))
	}
}

func TestParseTextRejectsMalformed(t *testing.T) {
	bad := []string{
		"no_type_decl 1",
		"# TYPE x counter\nx{le=\"oops} 1",
		"# TYPE x counter\nx 1\n# TYPE x counter\nx 2",
		"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1",
		"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2",
		"# TYPE x counter\n2x 1",
	}
	for _, in := range bad {
		if _, err := ParseText([]byte(in)); err == nil {
			t.Errorf("ParseText accepted malformed input %q", in)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	for i := 0; i < 100; i++ {
		h.Observe(1.5) // all in the (1,2] bucket
	}
	if q := h.Quantile(0.5); q < 1 || q > 2 {
		t.Errorf("p50 = %v, want within (1,2]", q)
	}
	h.Observe(100) // beyond the last finite bound
	if q := h.Quantile(1.0); q != 8 {
		t.Errorf("p100 with overflow sample = %v, want last finite bound 8", q)
	}
}

func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c")
	g := r.Gauge("g", "g")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Errorf("gauge = %v, want 8000", g.Value())
	}
}

// TestInstrumentUpdatesAllocFree pins the instrumentation's hot-path cost
// as a count: updating registry-created instruments allocates nothing.
func TestInstrumentUpdatesAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c", L("node", "0"))
	g := r.Gauge("g", "g", L("node", "0"))
	h := r.Histogram("h_seconds", "h", []float64{0.001, 0.01, 0.1}, L("node", "0"))
	// The pair-check margin is fed as a duration, and can be negative (an
	// output that beat the timer's callback but not its deadline).
	margin := r.Histogram("sof_pair_check_margin_seconds", "m", []float64{0.001, 0.01, 0.1, 1}, L("node", "0"))
	// The shadow's deferral wait and the labelled fetch counter, as core
	// registers them.
	deferral := r.Histogram("sof_shadow_deferral_seconds", "d", []float64{0.00005, 0.001, 1}, L("node", "0"))
	fetches := r.Counter("sof_fetch_requests_total", "f", L("node", "0"), L("what", "payload"))
	v := 0.0
	allocs := testing.AllocsPerRun(1000, func() {
		v += 0.0007
		c.Inc()
		g.Set(v)
		h.Observe(v)
		margin.ObserveDuration(time.Duration(v*float64(time.Second)) - 100*time.Millisecond)
		deferral.ObserveDuration(time.Duration(v * float64(time.Millisecond)))
		fetches.Inc()
	})
	if allocs != 0 {
		t.Errorf("Counter.Inc + Gauge.Set + Histogram.Observe + ObserveDuration allocate %v times per update, want 0", allocs)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "x")
	c.Inc() // nil instrument from nil registry: all no-ops
	var g *Gauge
	g.Set(3)
	g.Add(1)
	var h *Histogram
	h.Observe(1)
	h.ObserveDuration(time.Second)
	r.GaugeFunc("y", "y", func() float64 { return 0 })
	if r.Collect() != nil {
		t.Error("nil registry Collect should return nil")
	}
	if c.Value() != 0 || g.Value() != 0 {
		t.Error("nil instruments should read zero")
	}
}

func TestReRegisterReturnsSameSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x", L("node", "1"))
	a.Add(3)
	b := r.Counter("x_total", "x", L("node", "1"))
	if a != b {
		t.Fatal("re-registration must re-attach to the existing series")
	}
	if b.Value() != 3 {
		t.Errorf("value lost on re-registration: %d", b.Value())
	}
}

func TestMuxEndpoints(t *testing.T) {
	r := buildRegistry()
	ready := true
	var mu sync.Mutex
	mux := NewMux(r, func() error {
		mu.Lock()
		defer mu.Unlock()
		if !ready {
			return errNotReady
		}
		return nil
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}
	if code, body := get("/metrics"); code != 200 {
		t.Fatalf("/metrics = %d", code)
	} else if _, err := ParseText([]byte(body)); err != nil {
		t.Fatalf("/metrics malformed: %v", err)
	} else if !strings.Contains(body, "sof_commit_watermark") {
		t.Fatal("/metrics missing expected family")
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Fatalf("/healthz = %d", code)
	}
	if code, _ := get("/readyz"); code != 200 {
		t.Fatalf("/readyz while ready = %d", code)
	}
	mu.Lock()
	ready = false
	mu.Unlock()
	if code, body := get("/readyz"); code != 503 || !strings.Contains(body, "catching up") {
		t.Fatalf("/readyz while not ready = %d %q, want 503 with reason", code, body)
	}
}

var errNotReady = errNotReadyType{}

type errNotReadyType struct{}

func (errNotReadyType) Error() string { return "catching up" }

func TestQuantileEmptyAndInf(t *testing.T) {
	h := NewHistogram(nil)
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
	h.Observe(5)
	s := h.Snapshot()
	if len(s.Buckets) != 1 || !math.IsInf(s.Buckets[0].UpperBound, 1) {
		t.Fatalf("bound-less histogram should have only the +Inf bucket: %+v", s)
	}
	if s.Count != 1 {
		t.Errorf("count = %d", s.Count)
	}
}

// TestRegistryValue: the read-only lookup matches on a label subset,
// sums what matches, evaluates func-backed series, and registers nothing.
func TestRegistryValue(t *testing.T) {
	r := buildRegistry()
	before := len(r.Collect())
	for _, tc := range []struct {
		name   string
		labels []Label
		want   float64
	}{
		{"sof_commits_total", []Label{L("node", "0"), L("group", "1")}, 42},
		{"sof_commits_total", []Label{L("node", "0")}, 49}, // partial set sums
		{"sof_commits_total", []Label{L("node", "9")}, 0},
		{"sof_commit_watermark", nil, 1024},
		{"sof_peer_queue_depth", []Label{L("peer", "2")}, 3},
		{"sof_peer_dropped_total", nil, 5},
		{"sof_wal_fsync_seconds", nil, 0}, // histograms have no scalar
		{"sof_never_registered", nil, 0},
	} {
		if got := r.Value(tc.name, tc.labels...); got != tc.want {
			t.Errorf("Value(%s, %v) = %v, want %v", tc.name, tc.labels, got, tc.want)
		}
	}
	if after := len(r.Collect()); after != before {
		t.Errorf("Value registered families: %d -> %d", before, after)
	}
	if got := (*Registry)(nil).Value("x"); got != 0 {
		t.Errorf("nil registry Value = %v, want 0", got)
	}
}
