package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// fakeClock steps time deterministically for rate windows.
type fakeClock struct{ at time.Time }

func (c *fakeClock) now() time.Time       { return c.at }
func (c *fakeClock) step(d time.Duration) { c.at = c.at.Add(d) }
func newFakeClock() *fakeClock            { return &fakeClock{at: time.Unix(1700000000, 0)} }
func healthCfg(c *fakeClock) HealthConfig { return HealthConfig{Now: c.now, MinWindow: time.Second} }
func findReason(r HealthReport, rule string) *HealthReason {
	for i := range r.Reasons {
		if r.Reasons[i].Rule == rule {
			return &r.Reasons[i]
		}
	}
	return nil
}

func TestHealthShedBurn(t *testing.T) {
	reg := NewRegistry()
	sheds := reg.Counter(MetricVerifySheds, L("role", "edge"))
	clk := newFakeClock()
	h := NewHealth(reg, "edge-0", healthCfg(clk), nil)

	rep := h.Eval()
	if rep.Status != "ready" || rep.WindowSeconds != 0 {
		t.Fatalf("first eval = %+v", rep)
	}

	// 100 sheds over 2s = 50/s > default 25/s: degraded.
	sheds.Add(100)
	clk.step(2 * time.Second)
	rep = h.Eval()
	if rep.Status != "degraded" {
		t.Fatalf("status = %s, want degraded (%+v)", rep.Status, rep)
	}
	r := findReason(rep, "shed-burn")
	if r == nil || r.Value != 50 || r.Severity != "degraded" {
		t.Fatalf("shed-burn reason = %+v", r)
	}

	// 1000 sheds over 2s = 500/s >= 25*10: unhealthy.
	sheds.Add(1000)
	clk.step(2 * time.Second)
	rep = h.Eval()
	if rep.Status != "unhealthy" {
		t.Fatalf("status = %s, want unhealthy", rep.Status)
	}

	// Quiet window: recovers.
	clk.step(2 * time.Second)
	rep = h.Eval()
	if rep.Status != "ready" {
		t.Fatalf("status = %s, want ready after quiet window", rep.Status)
	}
}

func TestHealthMinWindowReusesRates(t *testing.T) {
	reg := NewRegistry()
	sheds := reg.Counter(MetricVerifySheds)
	clk := newFakeClock()
	h := NewHealth(reg, "n", healthCfg(clk), nil)
	h.Eval()
	sheds.Add(60)
	clk.step(2 * time.Second)
	if rep := h.Eval(); rep.Status != "degraded" {
		t.Fatalf("status = %s, want degraded", rep.Status)
	}
	// 100ms later (< MinWindow): the previous verdict's rates persist
	// rather than computing a bogus rate over a near-zero window.
	clk.step(100 * time.Millisecond)
	rep := h.Eval()
	if rep.Status != "degraded" {
		t.Fatalf("sub-window eval status = %s, want degraded (reused rates)", rep.Status)
	}
	if rep.Rates[MetricVerifySheds] != 30 {
		t.Fatalf("reused rate = %v, want 30", rep.Rates[MetricVerifySheds])
	}
}

func TestHealthReconnectChurnAndEvictions(t *testing.T) {
	reg := NewRegistry()
	conns := reg.Counter(MetricUplinkConnects, L("uplink", "0"))
	evicts := reg.Counter(MetricUDPReassemblyEvictions, L("face", "3"))
	clk := newFakeClock()
	h := NewHealth(reg, "n", healthCfg(clk), nil)
	h.Eval()

	// 2 reconnects in 10s = 12/min > default 6/min.
	conns.Add(2)
	evicts.Add(1000) // 100/s > default 50/s
	clk.step(10 * time.Second)
	rep := h.Eval()
	if rep.Status != "degraded" {
		t.Fatalf("status = %s, want degraded", rep.Status)
	}
	if findReason(rep, "reconnect-churn") == nil {
		t.Fatalf("missing reconnect-churn: %+v", rep.Reasons)
	}
	if findReason(rep, "reassembly-evictions") == nil {
		t.Fatalf("missing reassembly-evictions: %+v", rep.Reasons)
	}
}

func TestHealthBFSaturationWatchdog(t *testing.T) {
	reg := NewRegistry()
	measured := 0.0005
	reg.GaugeFunc(MetricBFFPP, func() float64 { return measured })
	reg.GaugeFunc(MetricBFTargetFPP, func() float64 { return 0.001 })
	clk := newFakeClock()
	ev := NewEvents("n", 8)
	h := NewHealth(reg, "n", healthCfg(clk), ev)

	// Below target: fine, even on the very first sample (level-based,
	// no rate window needed).
	if rep := h.Eval(); rep.Status != "ready" {
		t.Fatalf("below-target status = %s", rep.Status)
	}

	// Measured crosses target: degraded.
	measured = 0.002
	clk.step(2 * time.Second)
	rep := h.Eval()
	r := findReason(rep, "bf-saturation")
	if rep.Status != "degraded" || r == nil {
		t.Fatalf("watchdog did not fire: %+v", rep)
	}
	if r.Value != 0.002 || r.Threshold != 0.001 {
		t.Fatalf("bf-saturation reason = %+v", r)
	}

	// 8x target: unhealthy.
	measured = 0.009
	clk.step(2 * time.Second)
	if rep := h.Eval(); rep.Status != "unhealthy" {
		t.Fatalf("8x status = %s, want unhealthy", rep.Status)
	}

	// Rotation resets the filter; its FPP collapses and the
	// watchdog clears.
	measured = 0
	clk.step(2 * time.Second)
	if rep := h.Eval(); rep.Status != "ready" {
		t.Fatalf("post-rotate status = %s, want ready", rep.Status)
	}

	// The transitions surfaced as health_change events.
	var changes []Event
	for _, e := range ev.Snapshot() {
		if e.Type == EventHealthChange {
			changes = append(changes, e)
		}
	}
	if len(changes) != 3 {
		t.Fatalf("health_change events = %d (%+v), want 3", len(changes), changes)
	}
	if changes[0].Attr[:len("ready->degraded")] != "ready->degraded" {
		t.Fatalf("first transition attr = %q", changes[0].Attr)
	}
}

func TestHealthzHandler(t *testing.T) {
	reg := NewRegistry()
	sheds := reg.Counter(MetricVerifySheds)
	clk := newFakeClock()
	h := NewHealth(reg, "edge-0", HealthConfig{Now: clk.now, ShedRatePerSec: 10, UnhealthyFactor: 2}, nil)
	mux := http.NewServeMux()
	AttachHealthz(mux, h)

	get := func() (int, HealthReport) {
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
		var rep HealthReport
		if err := json.Unmarshal(rr.Body.Bytes(), &rep); err != nil {
			t.Fatalf("healthz json: %v", err)
		}
		return rr.Code, rep
	}

	if code, rep := get(); code != 200 || rep.Status != "ready" || rep.Node != "edge-0" {
		t.Fatalf("ready: code=%d rep=%+v", code, rep)
	}

	sheds.Add(1000) // 500/s over 2s >= 10*2: unhealthy
	clk.step(2 * time.Second)
	if code, rep := get(); code != http.StatusServiceUnavailable || rep.Status != "unhealthy" {
		t.Fatalf("unhealthy: code=%d rep=%+v", code, rep)
	}
}
