// Health engine: evaluates per-node health rules against the metric
// registry. The rules are grounded in the paper's own invariants — the
// measured tag re-check rate should track FPP(BF_rE), so a Bloom filter
// whose FPP (read from its set bits) runs past its configured target is a
// saturation (or un-rotated revocation storm) signal; a sustained
// verify-shed burn is the stateless-forwarding brute-force signal;
// reconnect churn and reassembly evictions flag link instability and
// fragment floods.
// Surfaced machine-readable via /healthz (eventz.go).
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// HealthStatus is a node's overall condition.
type HealthStatus int

const (
	// HealthReady means no rule is firing.
	HealthReady HealthStatus = iota
	// HealthDegraded means at least one rule fired at warning severity.
	HealthDegraded
	// HealthUnhealthy means at least one rule fired at critical severity.
	HealthUnhealthy
)

// String returns the wire form ("ready", "degraded", "unhealthy").
func (s HealthStatus) String() string {
	switch s {
	case HealthDegraded:
		return "degraded"
	case HealthUnhealthy:
		return "unhealthy"
	}
	return "ready"
}

// HealthReason explains one firing rule.
type HealthReason struct {
	// Rule is the stable rule identifier.
	Rule string `json:"rule"`
	// Severity is "degraded" or "unhealthy".
	Severity string `json:"severity"`
	// Detail is a human-readable sentence.
	Detail string `json:"detail"`
	// Value is the observed quantity that tripped the rule.
	Value float64 `json:"value"`
	// Threshold is the limit it tripped over.
	Threshold float64 `json:"threshold"`
}

// HealthReport is one evaluation result, the /healthz payload.
type HealthReport struct {
	Node   string `json:"node,omitempty"`
	Status string `json:"status"`
	// Reasons lists every firing rule, worst first; empty when ready.
	Reasons []HealthReason `json:"reasons,omitempty"`
	// Rates holds the per-second rates the rules evaluated
	// (family name -> rate), for dashboards.
	Rates map[string]float64 `json:"rates,omitempty"`
	// SampledAt is when the registry was sampled.
	SampledAt time.Time `json:"sampled_at"`
	// WindowSeconds is the rate window this evaluation used (0 on the
	// first sample, when no rates are available yet).
	WindowSeconds float64 `json:"window_seconds"`
}

// HealthConfig tunes the rule thresholds. Zero values select defaults.
type HealthConfig struct {
	// ShedRatePerSec degrades the node when verify sheds exceed it
	// (default 25/s); sustained ShedRatePerSec*UnhealthyFactor is
	// unhealthy.
	ShedRatePerSec float64
	// UnhealthyFactor scales a degraded threshold up to its unhealthy
	// threshold (default 10).
	UnhealthyFactor float64
	// MinWindow is the shortest interval over which rates are computed;
	// evaluations arriving sooner reuse the previous rates (default 1s).
	MinWindow time.Duration
	// Now overrides the clock (tests).
	Now func() time.Time
}

// The fixed rule thresholds.
const (
	// reconnectsPerMin degrades the node when uplink reconnects exceed
	// it; UnhealthyFactor times it is unhealthy.
	reconnectsPerMin = 6
	// reassemblyEvictsPerSec degrades the node when reassembly evictions
	// exceed it; UnhealthyFactor times it is unhealthy.
	reassemblyEvictsPerSec = 50
	// bfDegradedRatio degrades the node when FPP >= target * ratio (at
	// or past target is already the paper's re-check invariant
	// breaking); bfUnhealthyRatio marks it unhealthy.
	bfDegradedRatio  = 1
	bfUnhealthyRatio = 8
)

func (c HealthConfig) withDefaults() HealthConfig {
	if c.ShedRatePerSec <= 0 {
		c.ShedRatePerSec = 25
	}
	if c.UnhealthyFactor <= 0 {
		c.UnhealthyFactor = 10
	}
	if c.MinWindow <= 0 {
		c.MinWindow = time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Health evaluates node health from a metric registry. Eval is cheap
// (one registry snapshot plus a few map walks) and safe for concurrent
// callers.
type Health struct {
	reg  *Registry
	node string
	cfg  HealthConfig
	ev   *Events

	mu         sync.Mutex
	lastAt     time.Time
	lastTotals map[string]float64
	lastRates  map[string]float64
	lastStatus HealthStatus
	evaluated  bool
}

// NewHealth builds a health engine over reg for node. ev may be nil;
// when set, status transitions emit EventHealthChange.
func NewHealth(reg *Registry, node string, cfg HealthConfig, ev *Events) *Health {
	return &Health{reg: reg, node: node, cfg: cfg.withDefaults(), ev: ev}
}

// familyOf strips a rendered series name down to its family name.
func familyOf(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// Eval samples the registry and evaluates every rule, returning the
// report. Rate-based rules need two samples at least MinWindow apart;
// until then only level-based rules (BF saturation) can fire.
func (h *Health) Eval() HealthReport {
	cfg := h.cfg
	now := cfg.Now()
	snap := h.reg.Snapshot()

	// Collapse the snapshot into per-family aggregates: sums for the
	// counter families (rates are computed over the sum across labels)
	// and maxes for the FPP gauges (the worst filter on the node wins).
	totals := map[string]float64{}
	var fpp, targetFPP float64
	for series, v := range snap {
		switch fam := familyOf(series); fam {
		case MetricVerifySheds, MetricUplinkConnects, MetricUDPReassemblyEvictions:
			totals[fam] += v
		case MetricBFFPP:
			if v > fpp {
				fpp = v
			}
		case MetricBFTargetFPP:
			if v > targetFPP {
				targetFPP = v
			}
		}
	}

	h.mu.Lock()
	rates := h.lastRates
	window := 0.0
	if h.evaluated {
		dt := now.Sub(h.lastAt)
		if dt >= cfg.MinWindow {
			window = dt.Seconds()
			rates = make(map[string]float64, len(totals))
			for fam, cur := range totals {
				d := cur - h.lastTotals[fam]
				if d < 0 { // counter reset (restart)
					d = cur
				}
				rates[fam] = d / window
			}
			h.lastAt = now
			h.lastTotals = totals
			h.lastRates = rates
		} else if h.lastRates != nil {
			window = cfg.MinWindow.Seconds() // rates reused from the previous window
		}
	} else {
		h.lastAt = now
		h.lastTotals = totals
		h.evaluated = true
	}
	prevStatus := h.lastStatus
	h.mu.Unlock()

	var reasons []HealthReason
	addRule := func(rule string, value, degradedAt, unhealthyAt float64, unit string) {
		if value < degradedAt {
			return
		}
		sev, thr := "degraded", degradedAt
		if unhealthyAt > 0 && value >= unhealthyAt {
			sev, thr = "unhealthy", unhealthyAt
		}
		reasons = append(reasons, HealthReason{
			Rule:      rule,
			Severity:  sev,
			Detail:    fmt.Sprintf("%s at %.3g %s (threshold %.3g)", rule, value, unit, thr),
			Value:     value,
			Threshold: thr,
		})
	}

	if rates != nil {
		addRule("shed-burn", rates[MetricVerifySheds],
			cfg.ShedRatePerSec, cfg.ShedRatePerSec*cfg.UnhealthyFactor, "sheds/s")
		addRule("reconnect-churn", rates[MetricUplinkConnects]*60,
			reconnectsPerMin, reconnectsPerMin*cfg.UnhealthyFactor, "reconnects/min")
		addRule("reassembly-evictions", rates[MetricUDPReassemblyEvictions],
			reassemblyEvictsPerSec, reassemblyEvictsPerSec*cfg.UnhealthyFactor, "evictions/s")
	}
	// BF saturation is level-based: the paper's invariant is that the
	// re-check rate tracks FPP(BF_rE), so an FPP running past the
	// configured target means the filter needs an epoch rotation.
	if targetFPP > 0 {
		addRule("bf-saturation", fpp,
			targetFPP*bfDegradedRatio, targetFPP*bfUnhealthyRatio, "FPP")
	}

	status := HealthReady
	for _, r := range reasons {
		if r.Severity == "unhealthy" {
			status = HealthUnhealthy
			break
		}
		status = HealthDegraded
	}
	sort.SliceStable(reasons, func(i, j int) bool {
		return reasons[i].Severity == "unhealthy" && reasons[j].Severity != "unhealthy"
	})

	if status != prevStatus {
		h.mu.Lock()
		changed := h.lastStatus != status
		if changed {
			h.lastStatus = status
		}
		h.mu.Unlock()
		if changed {
			attr := prevStatus.String() + "->" + status.String()
			if len(reasons) > 0 {
				names := make([]string, len(reasons))
				for i, r := range reasons {
					names[i] = r.Rule
				}
				attr += " [" + strings.Join(names, ",") + "]"
			}
			h.ev.Emit(EventHealthChange, -1, attr, uint64(status))
		}
	}

	return HealthReport{
		Node:          h.node,
		Status:        status.String(),
		Reasons:       reasons,
		Rates:         rates,
		SampledAt:     now,
		WindowSeconds: window,
	}
}
