package network_test

import (
	"math/rand"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/network"
	"github.com/tactic-icn/tactic/internal/node"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/sim"
	"github.com/tactic-icn/tactic/internal/topology"
)

func TestColludingEdgeDeliversNACKedContent(t *testing.T) {
	h := newHarness(t, network.RouterConfig{Colluding: true})
	// A forged tag: the provider NACKs, but the colluding edge delivers
	// the ciphertext anyway (threat (f)).
	rogue, err := pki.GenerateFast(rand.New(rand.NewSource(70)), h.provider.KeyLocator())
	if err != nil {
		t.Fatal(err)
	}
	forged, err := core.IssueTag(rogue, names.MustParse("/u/mallory/KEY/1"), 3, h.apValue, h.engine.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	h.net.SendInterest(0, 0, &ndn.Interest{
		Name:  h.content.Meta.Name,
		Kind:  ndn.KindContent,
		Nonce: 1,
		Tag:   forged,
	}, 0)
	h.engine.Run()
	got := false
	for _, d := range h.client.data {
		if d.Content != nil {
			got = true
		}
	}
	if !got {
		t.Error("colluding edge should deliver despite the NACK")
	}
}

func TestDropContentOnNACKStarvesDownstream(t *testing.T) {
	h := newHarness(t, network.RouterConfig{DropContentOnNACK: true, CSCapacity: 100})
	// Warm the core router's cache with a valid fetch.
	cl := h.enrollClient(t, 71, 3)
	tag := h.registerViaNetwork(t, cl, 1)
	h.net.SendInterest(0, 0, &ndn.Interest{Name: h.content.Meta.Name, Kind: ndn.KindContent, Nonce: 2, Tag: tag}, 0)
	h.engine.Run()
	h.client.data = nil

	// A forged request now gets a pure NACK — no content rides along.
	rogue, err := pki.GenerateFast(rand.New(rand.NewSource(72)), h.provider.KeyLocator())
	if err != nil {
		t.Fatal(err)
	}
	forged, err := core.IssueTag(rogue, names.MustParse("/u/mallory/KEY/1"), 3, h.apValue, h.engine.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	h.net.SendInterest(0, 0, &ndn.Interest{Name: h.content.Meta.Name, Kind: ndn.KindContent, Nonce: 3, Tag: forged}, 0)
	h.engine.Run()
	for _, d := range h.client.data {
		if d.Content != nil {
			t.Error("DropContentOnNACK still attached content")
		}
	}
}

func TestRehomeDirect(t *testing.T) {
	// clientA(0) - apA(1) - edge(2); apB(3) - edge(2).
	g := buildGraph(
		[]topology.Kind{topology.KindClient, topology.KindAccessPoint, topology.KindEdgeRouter, topology.KindAccessPoint},
		[][2]int{{0, 1}, {1, 2}, {3, 2}},
	)
	engine := sim.NewEngine()
	net := network.New(engine, g, sim.NewStreams(1))
	apA := network.NewAPNode(net, 1, time.Second)
	apB := network.NewAPNode(net, 3, time.Second)
	edgeStub := &stub{}
	client := &stub{}
	net.SetNode(0, client)
	net.SetNode(1, apA)
	net.SetNode(2, edgeStub)
	net.SetNode(3, apB)

	// Before the move, interests flow via apA.
	net.SendInterest(0, 0, &ndn.Interest{Name: names.MustParse("/x"), Kind: ndn.KindContent, Nonce: 1}, 0)
	engine.Run()
	if len(edgeStub.interests) != 1 {
		t.Fatalf("pre-move interest lost")
	}
	wantA := core.EmptyAccessPath.Accumulate(g.Nodes[1].ID)
	if edgeStub.interests[0].AccessPath != wantA {
		t.Errorf("pre-move path %x, want %x", edgeStub.interests[0].AccessPath, wantA)
	}

	if err := net.Rehome(0, 3); err != nil {
		t.Fatal(err)
	}
	net.SendInterest(0, 0, &ndn.Interest{Name: names.MustParse("/y"), Kind: ndn.KindContent, Nonce: 2}, 0)
	engine.Run()
	if len(edgeStub.interests) != 2 {
		t.Fatalf("post-move interest lost")
	}
	wantB := core.EmptyAccessPath.Accumulate(g.Nodes[3].ID)
	if edgeStub.interests[1].AccessPath != wantB {
		t.Errorf("post-move path %x, want apB's %x", edgeStub.interests[1].AccessPath, wantB)
	}
	// Data flows back through apB to the client.
	net.SendData(2, net.FaceToward(2, 3), &ndn.Data{Name: names.MustParse("/y")}, 0)
	engine.Run()
	if len(client.data) != 1 {
		t.Errorf("post-move data not delivered: %d", len(client.data))
	}
	// The old AP no longer reaches the client.
	if got := net.FaceToward(1, 0); got != ndn.FaceNone {
		t.Errorf("old AP still has a face to the client: %v", got)
	}
	// Rehome rejects multi-faced nodes.
	if err := net.Rehome(2, 1); err == nil {
		t.Error("multi-faced node rehomed")
	}
}

func TestDelayChargingSerialisesCPU(t *testing.T) {
	h := newHarness(t, network.RouterConfig{})
	h.net.ChargeDelays = true
	h.net.Delays = sim.OpDelays{
		BFLookup:  sim.NormalDelay{Mean: 10 * time.Millisecond},
		BFInsert:  sim.NormalDelay{Mean: 10 * time.Millisecond},
		SigVerify: sim.NormalDelay{Mean: 50 * time.Millisecond},
	}
	cl := h.enrollClient(t, 73, 3)
	tag := h.registerViaNetwork(t, cl, 1)
	h.client.data = nil

	start := h.engine.Now()
	h.net.SendInterest(0, 0, &ndn.Interest{Name: h.content.Meta.Name, Kind: ndn.KindContent, Nonce: 2, Tag: tag}, 0)
	h.engine.Run()
	if len(h.client.data) == 0 {
		t.Fatal("no delivery")
	}
	elapsed := h.engine.Now().Sub(start)
	// The path charges at least one BF lookup at the edge (10 ms) plus
	// provider-side ops; without charging the RTT is ~8 ms.
	if elapsed < 15*time.Millisecond {
		t.Errorf("elapsed %v: computational delays not charged", elapsed)
	}
}

func TestProviderNodeAccessors(t *testing.T) {
	h := newHarness(t, network.RouterConfig{})
	if h.provNode.Provider() != h.provider {
		t.Error("Provider() accessor broken")
	}
	if n := len(h.provNode.CSNames()); n != 1 {
		t.Errorf("catalogue holds %d chunks, want 1", n)
	}
	if got := h.provNode.RegistrationName().String(); got != "/prov0/register" {
		t.Errorf("RegistrationName = %q", got)
	}
	// A Data at an origin is refused as unsolicited.
	h.provNode.HandleData(&ndn.Data{Name: names.MustParse("/x")}, 0)
	if n := h.provNode.Stats().Drops[node.DropUnsolicited]; n != 1 {
		t.Errorf("unsolicited drops = %d, want 1", n)
	}
	// Unknown content interests are dropped silently.
	h.net.SendInterest(0, 0, &ndn.Interest{Name: names.MustParse("/prov0/ghost/chunk0"), Kind: ndn.KindContent, Nonce: 9}, 0)
	h.engine.Run()
	if len(h.client.data) != 0 {
		t.Error("ghost content produced data")
	}
	// Malformed registrations (no payload) are counted as failed.
	h.net.SendInterest(0, 0, &ndn.Interest{Name: names.MustParse("/prov0/register/x/n1"), Kind: ndn.KindRegistration, Nonce: 10}, 0)
	h.engine.Run()
	if h.provNode.Stats().RegistrationsFailed == 0 {
		t.Error("malformed registration not counted")
	}
}

func TestRouterNodeAccessors(t *testing.T) {
	h := newHarness(t, network.RouterConfig{})
	if !h.edge.IsEdge() || h.core.IsEdge() {
		t.Error("IsEdge roles wrong")
	}
	if h.edge.Index() != 2 || h.core.Index() != 3 {
		t.Errorf("indices = %d, %d", h.edge.Index(), h.core.Index())
	}
	if h.edge.Tactic() == nil {
		t.Error("Tactic accessor nil")
	}
	if h.net.NodeAt(2) != network.Node(h.edge) {
		t.Error("NodeAt broken")
	}
	if h.net.PeerIndex(0, 0) != 1 {
		t.Errorf("PeerIndex = %d", h.net.PeerIndex(0, 0))
	}
	if h.net.FaceCount(2) != 2 {
		t.Errorf("FaceCount = %d", h.net.FaceCount(2))
	}
}

func TestEdgePreCheckDropReasons(t *testing.T) {
	// Exercise the reason-to-metric mapping for the remaining pre-check
	// failures: expired tags and cross-provider prefixes.
	h := newHarness(t, network.RouterConfig{})
	signer, err := pki.GenerateFast(rand.New(rand.NewSource(1)), names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	expired, err := core.IssueTag(signer, names.MustParse("/u/old/KEY/1"), 3, h.apValue, h.engine.Now().Add(-time.Second))
	if err != nil {
		t.Fatal(err)
	}
	h.net.SendInterest(0, 0, &ndn.Interest{Name: h.content.Meta.Name, Kind: ndn.KindContent, Nonce: 1, Tag: expired}, 0)
	h.engine.Run()
	if h.edge.Stats().Drops["expired"] == 0 {
		t.Error("expired-tag drop not recorded")
	}

	cross, err := core.IssueTag(signer, names.MustParse("/u/x/KEY/1"), 3, h.apValue, h.engine.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	h.net.SendInterest(0, 0, &ndn.Interest{Name: names.MustParse("/prov9/obj/c0"), Kind: ndn.KindContent, Nonce: 2, Tag: cross}, 0)
	h.engine.Run()
	if h.edge.Stats().Drops["prefix_mismatch"] == 0 {
		t.Error("prefix-mismatch drop not recorded")
	}
}

func TestAPRecordExpiry(t *testing.T) {
	g := buildGraph(
		[]topology.Kind{topology.KindClient, topology.KindAccessPoint, topology.KindEdgeRouter},
		[][2]int{{0, 1}, {1, 2}},
	)
	engine := sim.NewEngine()
	net := network.New(engine, g, sim.NewStreams(1))
	ap := network.NewAPNode(net, 1, 100*time.Millisecond)
	if ap.ID() == "" {
		t.Error("AP ID empty")
	}
	edgeStub := &stub{}
	client := &stub{}
	net.SetNode(0, client)
	net.SetNode(1, ap)
	net.SetNode(2, edgeStub)

	name := names.MustParse("/prov0/x")
	net.SendInterest(0, 0, &ndn.Interest{Name: name, Kind: ndn.KindContent, Nonce: 1}, 0)
	engine.Run()
	// Long after the AP's record lifetime, a second interest triggers
	// gc of the stale record; the late Data then matches only the fresh
	// record and is delivered once.
	engine.RunFor(time.Second)
	net.SendInterest(0, 0, &ndn.Interest{Name: name, Kind: ndn.KindContent, Nonce: 2}, 0)
	engine.Run()
	net.SendData(2, 0, &ndn.Data{Name: name}, 0)
	engine.Run()
	if len(client.data) != 1 {
		t.Errorf("deliveries = %d, want exactly 1 (stale record expired)", len(client.data))
	}
}
