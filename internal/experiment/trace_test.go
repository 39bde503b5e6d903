package experiment

import (
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/node"
)

// traceScenario is a short multi-hop run, optionally traced.
func traceScenario(traceEvery int) Scenario {
	sc := smallScenario(7)
	sc.Name = "trace-test"
	sc.Duration = 15 * time.Second
	// The delay model must be on for stage durations to be non-zero.
	sc.PaperFidelity = true
	sc.TraceEvery = traceEvery
	return sc
}

// TestTracingIsDeterministic proves head-sampled tracing never perturbs
// a run: the traced and untraced runs must agree event-for-event.
func TestTracingIsDeterministic(t *testing.T) {
	base, err := Run(traceScenario(0))
	if err != nil {
		t.Fatalf("untraced run: %v", err)
	}
	traced, err := Run(traceScenario(4))
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}

	if base.Events != traced.Events {
		t.Errorf("event counts diverge: untraced %d, traced %d", base.Events, traced.Events)
	}
	if base.ClientDelivery != traced.ClientDelivery {
		t.Errorf("client delivery diverges: untraced %+v, traced %+v", base.ClientDelivery, traced.ClientDelivery)
	}
	if base.AttackerDelivery != traced.AttackerDelivery {
		t.Errorf("attacker delivery diverges: untraced %+v, traced %+v", base.AttackerDelivery, traced.AttackerDelivery)
	}
	if bm, tm := base.ClientLatency.Mean(), traced.ClientLatency.Mean(); bm != tm {
		t.Errorf("latency mean diverges: untraced %s, traced %s", bm, tm)
	}
	if base.TracesAssembled != 0 || len(base.HopDecomp) != 0 {
		t.Errorf("untraced run produced traces: %d assembled, %d rows", base.TracesAssembled, len(base.HopDecomp))
	}
}

// TestTracingDecomposition checks the traced run actually assembles
// multi-hop traces with the roles Topology 1 must traverse.
func TestTracingDecomposition(t *testing.T) {
	res, err := Run(traceScenario(4))
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}
	if res.TracesAssembled == 0 {
		t.Fatal("no traces assembled")
	}
	if len(res.HopDecomp) == 0 {
		t.Fatal("no hop decomposition rows")
	}

	roles := make(map[string]bool)
	maxHop := 0
	var edgeVerify float64
	for _, row := range res.HopDecomp {
		if row.Spans <= 0 {
			t.Errorf("row %+v has no spans", row)
		}
		roles[row.Role] = true
		if row.Hop > maxHop {
			maxHop = row.Hop
		}
		if row.Role == "edge" && row.Kind == "interest" {
			edgeVerify = row.StageUs["verify"]
		}
	}
	for _, want := range []string{"client", "edge", "core", "producer"} {
		if !roles[want] {
			t.Errorf("no decomposition row for role %q (got roles %v)", want, roles)
		}
	}
	// Topology 1 paths are client -> edge -> core... -> producer and
	// back, so traces must span at least 3 distinct hops.
	if maxHop < 3 {
		t.Errorf("max hop %d, want >= 3", maxHop)
	}
	// Edge routers verify signatures on first sight of a tag (Protocol
	// 2), so the edge Interest hop must attribute time to verify.
	if edgeVerify <= 0 {
		t.Errorf("edge interest hop shows no verify time (%.1f us)", edgeVerify)
	}
}

// TestTracingOutcomeVocabulary checks every router and producer span of
// a traced run ends with an outcome from the node core's vocabulary,
// the spellings the live forwarder writes for the same steps.
func TestTracingOutcomeVocabulary(t *testing.T) {
	d, err := Build(traceScenario(4))
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	d.RunToEnd()
	known := make(map[string]bool)
	for _, o := range node.SpanOutcomes() {
		known[o] = true
	}
	seen := make(map[string]int)
	for _, tr := range d.Traces().Traces() {
		for _, s := range tr.Spans {
			if s.Role == "client" {
				continue
			}
			seen[s.Outcome]++
			if !known[s.Outcome] {
				t.Errorf("%s %s span at hop %d ends %q, outside node.SpanOutcomes", s.Role, s.Kind, s.Hop, s.Outcome)
			}
		}
	}
	// The attackers make the run end spans in refusals too, not only on
	// the happy path.
	for _, want := range []string{node.OutcomeForwarded, node.OutcomeCSHit, node.OutcomeDelivered,
		node.OutcomeNack + "forged", node.OutcomeDrop + node.DropUndeliverable} {
		if seen[want] == 0 {
			t.Errorf("no span ended %q (outcomes seen: %v)", want, seen)
		}
	}
}
