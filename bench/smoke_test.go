package main

import (
	"testing"
	"time"
)

// A second of each workload over real sockets: set-up, warm step, a light
// and a loaded phase, and the invariants that make the workload what the
// README says it is.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots three nodes and provisions 2048 subscribers per workload")
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			lg, _, err := setUp(wl, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			defer lg.r.close()
			for _, ph := range []struct {
				name   string
				window int
				d      time.Duration
			}{{"light", lightWindow, 400 * time.Millisecond}, {"loaded", loadedWindow, 600 * time.Millisecond}} {
				p, _, err := lg.timed(ph.window, 100*time.Millisecond, ph.d)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range wl.violations(ph.name, p) {
					t.Error(v)
				}
				if p.counts.failed != 0 || p.counts.stray != 0 {
					t.Errorf("%s: %+v", ph.name, p.counts)
				}
				// Every forged Interest is NACKed, but for the one in tens of
				// thousands the filter mistakes for a tag it has seen (a false
				// positive, which violations judges against the filter's rate).
				if wl.churn && (p.counts.forgedSent == 0 || p.edgeNACKs+p.counts.forgedLeaked != p.counts.forgedSent) {
					t.Errorf("%s: %d forged Interests sent, %d NACKs at the edge, %d served", ph.name,
						p.counts.forgedSent, p.edgeNACKs, p.counts.forgedLeaked)
				}
				if len(p.lat) == 0 || p.fetchRate() <= 0 || p.cpuMicros() <= 0 || p.mallocs == 0 {
					t.Errorf("%s: nothing measured: %d latencies, rate %g, cpu %g", ph.name, len(p.lat), p.fetchRate(), p.cpuMicros())
				}
			}
		})
	}
}
