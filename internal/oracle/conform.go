package oracle

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/node"
)

// Options configures one conformance run. The zero value is the
// standard gate: vanilla TACTIC semantics in every plane and a
// deterministic (FPRate 0) reference model. Tests inject semantics bugs
// by flipping core.Config knobs on one plane, or the mirrored Knobs on
// the oracle, and assert the harness reports the divergence.
type Options struct {
	// Scheme selects the enforcement backend for the whole run: it is
	// copied into both plane configs and the reference model's knobs, so
	// all three harnesses decide with the same engine semantics.
	Scheme core.Scheme
	// SimTactic / LiveTactic are the enforcement configs handed to the
	// sim-plane routers and the live forwarders respectively.
	SimTactic  core.Config
	LiveTactic core.Config
	// Knobs parameterizes the reference model.
	Knobs Knobs
	// SkipLive runs only oracle vs sim (used where wall-clock timing
	// would make a test slow or an FPRate oracle has no plane twin).
	SkipLive bool
}

// Divergence is one observable disagreement between the reference
// model and a plane.
type Divergence struct {
	// Request indexes Scenario.Requests, or -1 for an end-state
	// (content-store) divergence.
	Request int
	// Field names the compared observable, e.g. "delivered(live)" or
	// "cs[edge-0](sim)".
	Field string
	// Oracle and Got are the reference model's prediction and the
	// plane's observation.
	Oracle string
	Got    string
}

func (d Divergence) String() string {
	if d.Request < 0 {
		return fmt.Sprintf("%s: oracle=%s got=%s", d.Field, d.Oracle, d.Got)
	}
	return fmt.Sprintf("req[%d] %s: oracle=%s got=%s", d.Request, d.Field, d.Oracle, d.Got)
}

// Report is the outcome of replaying one scenario against the oracle
// and both planes.
type Report struct {
	Scenario    *Scenario
	Divergences []Divergence
}

// Diverged reports whether any observable disagreed.
func (r *Report) Diverged() bool { return len(r.Divergences) > 0 }

// RunSeed generates the scenario for a seed and replays it.
func RunSeed(seed int64, opts Options) (*Report, error) {
	scn, err := GenerateScenario(seed)
	if err != nil {
		return nil, err
	}
	return RunScenario(scn, opts)
}

// RunFloodSeed generates the TagFlood scenario for a seed and replays
// it: the flood gate proving all planes shed identically under a
// seeded verify-flood burst.
func RunFloodSeed(seed int64, opts Options) (*Report, error) {
	scn, err := GenerateFloodScenario(seed)
	if err != nil {
		return nil, err
	}
	return RunScenario(scn, opts)
}

// RunScenario replays one scenario against the reference model, the
// sim plane, and (unless opts.SkipLive) the live plane, and reports
// every per-request verdict and end-state disagreement.
func RunScenario(scn *Scenario, opts Options) (*Report, error) {
	info, err := buildTopo(scn)
	if err != nil {
		return nil, err
	}
	simTactic, liveTactic, knobs := opts.SimTactic, opts.LiveTactic, opts.Knobs
	if opts.Scheme != core.SchemeTACTIC {
		simTactic.Scheme = opts.Scheme
		liveTactic.Scheme = opts.Scheme
		knobs.Scheme = opts.Scheme
	}
	if scn.Flood != nil {
		// Flood scenarios verify at the edge — that is the hot path the
		// admission budget protects — with the scenario's budget mirrored
		// into the model unless the oracle-side "forgot to cap" injection
		// is active. Plane-side injections go through the planes' own
		// core.Config.DisableAdmission.
		simTactic.EdgeValidateOnMiss = true
		liveTactic.EdgeValidateOnMiss = true
		knobs.EdgeValidateOnMiss = true
		knobs.AdmissionBudget = scn.Flood.Budget
	}
	ref, err := RunReference(scn, info, knobs)
	if err != nil {
		return nil, err
	}
	sim, err := RunSim(scn, info, simTactic)
	if err != nil {
		return nil, err
	}
	var live *PlaneResult
	if !opts.SkipLive {
		live, err = RunLive(scn, info, liveTactic)
		if errors.Is(err, ErrTimingSkew) {
			// A loaded machine can miss a mid-run expiry window; the run
			// is invalid (not divergent), so try once more.
			live, err = RunLive(scn, info, liveTactic)
		}
		if err != nil {
			return nil, err
		}
	}

	rep := &Report{Scenario: scn}
	diverge := func(req int, field, oracle, got string) {
		rep.Divergences = append(rep.Divergences, Divergence{Request: req, Field: field, Oracle: oracle, Got: got})
	}
	boolStr := func(b bool) string { return fmt.Sprintf("%t", b) }
	for ri := range scn.Requests {
		o := ref.Outcomes[ri]
		s := sim.Outcomes[ri]
		if o.Delivered != s.Delivered {
			diverge(ri, "delivered(sim)", boolStr(o.Delivered), boolStr(s.Delivered))
		}
		if o.SimNacked() != s.Nacked {
			diverge(ri, "nacked(sim)", boolStr(o.SimNacked()), boolStr(s.Nacked))
		}
		if o.SimNacked() && s.Nacked && o.Reason != s.Reason {
			// Only the sim plane carries denial reasons to the client.
			diverge(ri, "reason(sim)", o.Reason, s.Reason)
		}
		if live == nil {
			continue
		}
		l := live.Outcomes[ri]
		if o.Delivered != l.Delivered {
			diverge(ri, "delivered(live)", boolStr(o.Delivered), boolStr(l.Delivered))
		}
		if o.LiveNacked() != l.Nacked {
			diverge(ri, "nacked(live)", boolStr(o.LiveNacked()), boolStr(l.Nacked))
		}
		if o.LiveNacked() && l.Nacked && o.Reason != l.Reason {
			// Every live denial carries its reason code on the wire: the
			// edge decides each PIT record on its own (OnDataRecord).
			diverge(ri, "reason(live)", o.Reason, l.Reason)
		}
	}
	compareCS(ref.CS, sim.CS, "sim", diverge)
	if live != nil {
		compareCS(ref.CS, live.CS, "live", diverge)
		compareLedgers(sim.Ledger, live.Ledger, diverge)
	}
	return rep, nil
}

// ledgerPolicyRow reports whether a router's ledger row legitimately
// differs between the planes (DESIGN.md §6b), so the ledger comparison
// skips it. What it keeps are the Protocol 2 refusals by reason and the
// drops the node core decides on arrival (dup_nonce, no_route).
func ledgerPolicyRow(row string) bool {
	switch {
	case row == node.OutcomeDrop+node.DropNoFace, row == node.OutcomeDrop+node.DropSendErr:
		return true // a live send failure; the sim's sends never fail
	case row == node.OutcomeDrop+node.DropUnsolicited:
		return true // a second answer to a live re-sent aggregate finds its entry consumed
	case row == node.OutcomeDrop+node.DropUndeliverable, strings.HasPrefix(row, node.OutcomeNack):
		return true // which router answers a denial, as a hit or at the Data, depends on the live plane's racing requests
	}
	return false
}

// compareLedgers checks the live plane's ledgers against the sim plane's,
// router by router: both planes drive one node core over the same
// scenario, so each router NACKs and drops the same packets for the same
// reasons, bar the rows the planes legitimately differ in
// (ledgerPolicyRow). The sim's count is reported as the reference.
func compareLedgers(sim, live map[string]map[string]uint64, diverge func(int, string, string, string)) {
	report := func(router, row string, s, l uint64) {
		if s != l && !ledgerPolicyRow(row) {
			diverge(-1, fmt.Sprintf("ledger[%s][%s](live)", router, row), strconv.FormatUint(s, 10), strconv.FormatUint(l, 10))
		}
	}
	for router, rows := range sim {
		for row, n := range rows {
			report(router, row, n, live[router][row])
		}
	}
	for router, rows := range live {
		for row, n := range rows {
			if _, ok := sim[router][row]; !ok { // Rows holds no zeros
				report(router, row, 0, n)
			}
		}
	}
}

// compareCS checks a plane's end-state content stores against the
// oracle's prediction, router by router.
func compareCS(oracle, got map[string][]string, plane string, diverge func(int, string, string, string)) {
	for router, want := range oracle {
		have := got[router]
		if strings.Join(want, ",") != strings.Join(have, ",") {
			diverge(-1, fmt.Sprintf("cs[%s](%s)", router, plane),
				"{"+strings.Join(want, ",")+"}", "{"+strings.Join(have, ",")+"}")
		}
	}
	for router := range got {
		if _, ok := oracle[router]; !ok {
			diverge(-1, fmt.Sprintf("cs[%s](%s)", router, plane), "<absent>", "{"+strings.Join(got[router], ",")+"}")
		}
	}
}
