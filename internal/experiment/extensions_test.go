package experiment

import (
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/topology"
)

// TestTraitorTracingFlagsSharedTagVictims exercises the paper's §9
// future-work extension: an attacker replaying a client's tag from a
// foreign location produces access-path mismatches at the edge, and the
// shared detector flags the implicated client.
func TestTraitorTracingFlagsSharedTagVictims(t *testing.T) {
	s := smallScenario(21)
	s.AttackerMix = []AttackerKind{AttackSharedTag}
	s.TraitorThreshold = 10
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Drops["access_path"] < 10 {
		t.Fatalf("too few mismatches (%d) to exercise the detector", res.Drops["access_path"])
	}
	if len(res.TraitorSuspects) == 0 {
		t.Error("sustained tag sharing should flag the victim's client key")
	}
	// The flagged keys are client key locators.
	for _, k := range res.TraitorSuspects {
		if len(k) == 0 || k[0] != '/' {
			t.Errorf("suspect %q is not a key locator", k)
		}
	}
}

// TestTraitorTracingQuietWithoutSharing pins the false-positive side: an
// honest population never gets flagged.
func TestTraitorTracingQuietWithoutSharing(t *testing.T) {
	s := smallScenario(22)
	s.Topology.Attackers = 0
	s.TraitorThreshold = 3
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TraitorSuspects) != 0 {
		t.Errorf("honest clients flagged: %v", res.TraitorSuspects)
	}
}

// TestClientMobility exercises the §9 future-work mobility scenario: a
// client hands over to a different access point mid-run, re-registers
// (its old tag's access path no longer matches), and resumes retrieval
// from the new location.
func TestClientMobility(t *testing.T) {
	dep, err := Build(Scenario{
		Name: "mobility",
		Topology: topology.Config{
			CoreRouters: 12,
			EdgeRouters: 4,
			Providers:   2,
			Clients:     4,
			Attackers:   0,
		},
		Seed:               5,
		Duration:           60 * time.Second,
		ObjectsPerProvider: 10,
		ChunksPerObject:    10,
	})
	if err != nil {
		t.Fatal(err)
	}
	dep.Start()
	dep.RunUntil(20 * time.Second)

	mover := dep.Clients[0]
	before := mover.Stats()
	regBefore, _ := dep.ClientIdentities[0].TagStats()

	// Find an AP other than the mover's current one.
	aps := dep.Network.Graph.OfKind(topology.KindAccessPoint)
	curAP := dep.Network.PeerIndex(clientIndex(dep, 0), 0)
	newAP := -1
	for _, ap := range aps {
		if ap != curAP {
			newAP = ap
			break
		}
	}
	if newAP == -1 {
		t.Fatal("no alternative AP")
	}
	if err := mover.MoveTo(newAP); err != nil {
		t.Fatal(err)
	}
	if mover.Moves() != 1 {
		t.Errorf("moves = %d", mover.Moves())
	}

	dep.RunUntil(60 * time.Second)
	after := mover.Stats()
	regAfter, _ := dep.ClientIdentities[0].TagStats()

	// The client kept retrieving after the handover...
	gained := after.Delivery.Received - before.Delivery.Received
	if gained == 0 {
		t.Error("mobile client retrieved nothing after the handover")
	}
	// ...and had to re-register for its new location (§4.A).
	if regAfter <= regBefore {
		t.Error("handover should trigger fresh registrations")
	}
	// Overall delivery stays high: mobility costs a registration, not
	// connectivity.
	if after.Delivery.Ratio() < 0.9 {
		t.Errorf("mobile client delivery ratio %.4f", after.Delivery.Ratio())
	}
}

// clientIndex recovers the graph index of the n-th client.
func clientIndex(d *Deployment, n int) int {
	return d.Network.Graph.OfKind(topology.KindClient)[n]
}

// TestMobilityRejectsMultiFacedNodes pins Rehome's precondition.
func TestMobilityRejectsMultiFacedNodes(t *testing.T) {
	dep, err := Build(smallScenario(23))
	if err != nil {
		t.Fatal(err)
	}
	// Core router 0 has several faces; it cannot "move".
	coreIdx := dep.Network.Graph.OfKind(topology.KindCoreRouter)[0]
	aps := dep.Network.Graph.OfKind(topology.KindAccessPoint)
	if err := dep.Network.Rehome(coreIdx, aps[0]); err == nil {
		t.Error("multi-faced node rehomed")
	}
}

// TestMobilityNoopToSameAP pins the same-AP fast path.
func TestMobilityNoopToSameAP(t *testing.T) {
	dep, err := Build(smallScenario(24))
	if err != nil {
		t.Fatal(err)
	}
	idx := clientIndex(dep, 0)
	curAP := dep.Network.PeerIndex(idx, 0)
	if err := dep.Network.Rehome(idx, curAP); err != nil {
		t.Errorf("same-AP rehome should be a no-op: %v", err)
	}
}
