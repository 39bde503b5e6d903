package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := make([]uint32, 1000)
	for i := range s {
		s[i] = uint32(i + 1) // 1..1000
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.5, 500}, {0.9, 900}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0.0001, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..1000, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := percentile([]uint32{42}, 0.9); got != 42 {
		t.Errorf("percentile of one sample = %g, want 42", got)
	}
}

func TestRateArithmetic(t *testing.T) {
	p := phaseStats{
		counts:     opCounts{ops: 1000, failed: 10},
		elapsed:    2 * time.Second,
		cpu:        30 * time.Millisecond,
		edgeCSHits: 990, edgeInterests: 1000,
	}
	if got := p.fetchRate(); got != 495 {
		t.Errorf("fetch rate = %g, want 495: failed operations do not count", got)
	}
	if got := p.cpuMicros(); got != 30 {
		t.Errorf("CPU per fetch = %g us, want 30", got)
	}
	if got := p.perFetch(250); got != 0.25 {
		t.Errorf("per fetch = %g, want 0.25", got)
	}
	if got := p.csHitRatio(); got != 0.99 {
		t.Errorf("CS-hit ratio = %g, want 0.99", got)
	}
	if got := (phaseStats{}).fetchRate(); got != 0 {
		t.Errorf("rate of an empty phase = %g, want 0", got)
	}
	if got := (histSnap{sum: 1, count: 10}).meanMicros(histSnap{sum: 1.003, count: 13}); math.Abs(got-1000) > 1e-6 {
		t.Errorf("histogram mean = %g us, want 1000", got)
	}
}

// Values from Python: statistics.quantiles(v, n=4) and statistics.median.
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{12, 7, 3, 9, 15, 1, 8, 20, 4, 11}
	q1, q2, q3 := quartiles(v)
	if q1 != 3.75 || q2 != 8.5 || q3 != 12.75 {
		t.Errorf("quartiles = %g %g %g, want 3.75 8.5 12.75", q1, q2, q3)
	}
	if m := median(v); m != 8.5 {
		t.Errorf("median = %g, want 8.5", m)
	}
	q1, q2, q3 = quartiles([]float64{5, 1, 3})
	if q1 != 1 || q2 != 3 || q3 != 5 {
		t.Errorf("quartiles of three = %g %g %g, want 1 3 5", q1, q2, q3)
	}
}

// BENCHMARK.json is what the pipeline reads; the program is what runs.
// They must name the same workloads and metrics.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program defaults to %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the program has %d", len(doc.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if doc.Workloads[i].Name != wl.name || doc.Workloads[i].Why != wl.why {
			t.Errorf("workload %d is %+v, the program has %s: %s", i, doc.Workloads[i], wl.name, wl.why)
		}
	}
	same := func(kind string, listed []metric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Errorf("%d %s metrics listed, the program has %d", len(listed), kind, len(defs))
			return
		}
		for i, def := range defs {
			better := "lower"
			if def.higher {
				better = "higher"
			}
			m := listed[i]
			if m.Name != def.name || m.Unit != def.unit || m.Better != better {
				t.Errorf("%s metric %d is %s [%s] %s, the program has %s [%s] %s",
					kind, i, m.Name, m.Unit, m.Better, def.name, def.unit, better)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != def.bound) {
				t.Errorf("%s metric %s: bound %v, the program has %g (bounded=%v)", kind, m.Name, m.Bound, def.bound, bounded)
			}
		}
	}
	same("end-to-end", doc.EndToEnd, endToEnd, true)
	same("per-layer", doc.PerLayer, perLayer, false)
}
