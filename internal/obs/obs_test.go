package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", L("role", "edge"))
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	// Same name+labels resolves to the same series.
	if r.Counter("requests_total", L("role", "edge")) != c {
		t.Error("re-resolution returned a different counter")
	}
	// Different labels are a different series.
	if r.Counter("requests_total", L("role", "core")) == c {
		t.Error("distinct labels shared a series")
	}

	g := r.Gauge("fill_ratio")
	g.Set(0.25)
	if g.Value() != 0.25 {
		t.Errorf("gauge = %v", g.Value())
	}
}

func TestLabelOrderCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", L("a", "1"), L("b", "2"))
	b := r.Counter("x_total", L("b", "2"), L("a", "1"))
	if a != b {
		t.Error("label order changed series identity")
	}
}

func TestNilRegistryNoOps(t *testing.T) {
	var r *Registry
	r.Counter("c").Inc()
	r.Gauge("g").Set(1)
	r.Histogram("h", nil).Observe(1)
	r.GaugeFunc("gf", func() float64 { return 1 })
	r.CounterFunc("cf", func() float64 { return 1 })
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot should be nil")
	}
	var sp *Span
	sp.Event("stage", "detail")
	sp.End("ok", 0)
}

func TestKindConflictPanics(t *testing.T) {
	for what, register := range map[string]func(r *Registry){
		"gauge reuse of a counter name":          func(r *Registry) { r.Counter("m"); r.Gauge("m") },
		"a declared counter registered as gauge": func(r *Registry) { r.GaugeFunc(MetricInterests, func() float64 { return 0 }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", what)
				}
			}()
			register(NewRegistry())
		}()
	}
}

func TestHistogramBucketsAndRendering(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", []float64{0.1, 1}, L("role", "edge"))
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	if h.Count() != 3 {
		t.Errorf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-5.55) > 1e-9 {
		t.Errorf("sum = %v", h.Sum())
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{role="edge",le="0.1"} 1`,
		`lat_seconds_bucket{role="edge",le="1"} 2`,
		`lat_seconds_bucket{role="edge",le="+Inf"} 3`,
		`lat_seconds_count{role="edge"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter(MetricFaceFrames, L("face", "0"), L("dir", "in")).Add(7)
	r.GaugeFunc("pit_entries", func() float64 { return 42 })
	r.CounterFunc("verify_total", func() float64 { return 9 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP tactic_face_frames_total Frames moved per face, by link kind and direction.",
		"# TYPE tactic_face_frames_total counter",
		`tactic_face_frames_total{dir="in",face="0"} 7`,
		"# TYPE pit_entries gauge",
		"pit_entries 42",
		"# TYPE verify_total counter",
		"verify_total 9",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "# HELP pit_entries") {
		t.Errorf("a family the catalogue does not declare got a HELP line:\n%s", out)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(3)
	r.Histogram("h_seconds", []float64{1}).Observe(0.5)
	snap := r.Snapshot()
	if snap["a_total"] != 3 {
		t.Errorf("a_total = %v", snap["a_total"])
	}
	if snap["h_seconds_count"] != 1 || snap["h_seconds_sum"] != 0.5 {
		t.Errorf("histogram snapshot = %v", snap)
	}
}

// TestConcurrentIncrements exercises the lock-free paths under the race
// detector.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	h := r.Histogram("h_seconds", []float64{0.5})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(0.25)
				// Concurrent resolution of new series must also be safe.
				r.Counter("g_total", L("i", "x")).Inc()
			}
		}()
	}
	// Scrape concurrently with the increments.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count())
	}
	// All goroutines must have resolved the one g_total series: a racy
	// resolver could hand out two distinct handles and lose increments.
	if v := r.Counter("g_total", L("i", "x")).Value(); v != 8000 {
		t.Errorf("concurrently resolved counter = %d, want 8000", v)
	}
}

// TestCounterAndCounterFuncShareFamily: one family may hold plain
// counters and CounterFunc-sampled ones under distinct label sets. Both
// render as Prometheus counters, so one registry must accept the mix.
func TestCounterAndCounterFuncShareFamily(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("bf_lookups_total", func() float64 { return 11 }, L("role", "edge"))
	r.Counter("bf_lookups_total", L("role", "edge"), L("run", "sim1")).Add(5)
	r.GaugeFunc("fill_ratio", func() float64 { return 0.5 }, L("role", "edge"))
	r.Gauge("fill_ratio", L("run", "sim1")).Set(0.25)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE bf_lookups_total counter",
		`bf_lookups_total{role="edge"} 11`,
		`bf_lookups_total{role="edge",run="sim1"} 5`,
		`fill_ratio{role="edge"} 0.5`,
		`fill_ratio{run="sim1"} 0.25`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// A single exact (name, labels) series still cannot be both a direct
// counter and a sampling callback.
func TestDirectAndFuncSameSeriesPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("m_total", func() float64 { return 1 }, L("role", "edge"))
	defer func() {
		if recover() == nil {
			t.Error("direct counter reuse of a func-backed series did not panic")
		}
	}()
	r.Counter("m_total", L("role", "edge"))
}

// TestScrapeDoesNotHoldLockDuringCallbacks: a GaugeFunc that itself
// resolves a new metric on the registry must not deadlock (the scrape
// snapshots the series list before calling callbacks).
func TestScrapeDoesNotHoldLockDuringCallbacks(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("self_referential", func() float64 {
		r.Counter("created_during_scrape_total").Inc()
		return 1
	})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "self_referential 1") {
		t.Errorf("gauge func not rendered:\n%s", b.String())
	}
}
