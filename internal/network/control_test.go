package network_test

import (
	"encoding/json"
	"math/bits"
	"math/rand"
	"os"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/enforce"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/network"
	"github.com/tactic-icn/tactic/internal/node"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/sim"
	"github.com/tactic-icn/tactic/internal/topology"
)

// TestSimRevocationPush pins the sim-plane tentpole semantics: a pushed
// revocation denies an already-validated tag at every router before its
// T_e, and lifting it restores service.
func TestSimRevocationPush(t *testing.T) {
	h := newHarness(t, network.RouterConfig{})
	cl := h.enrollClient(t, 30, 3)
	tag := h.registerViaNetwork(t, cl, 1)
	h.client.data = nil

	fetch := func(nonce uint64) *ndn.Data {
		h.client.data = nil
		h.net.SendInterest(0, 0, &ndn.Interest{
			Name: h.content.Meta.Name, Kind: ndn.KindContent, Nonce: nonce, Tag: tag,
		}, 0)
		h.engine.Run()
		if len(h.client.data) != 1 {
			t.Fatalf("fetch nonce %d: %d responses", nonce, len(h.client.data))
		}
		return h.client.data[0]
	}

	if d := fetch(2); d.Nack || d.Content == nil {
		t.Fatalf("pre-revocation fetch failed: %+v", d)
	}

	revoke := func(version uint64, ids ...core.TagID) int {
		return h.net.Control(&ndn.Control{Kind: ndn.CtrlRevoke, Version: version, Revoked: ids})
	}
	if applied := revoke(1, tag.ID()); applied != 2 {
		t.Fatalf("revocation applied at %d routers, want 2", applied)
	}
	if d := fetch(3); !d.Nack {
		t.Fatalf("revoked tag still served: %+v", d)
	}
	// The edge denied it (Protocol 2 pre-BF check), under its own reason.
	if h.edge.Stats().Drops["revoked"] == 0 {
		t.Error("edge did not record the revoked drop")
	}

	// A stale push is a no-op; an advancing empty full push lifts it.
	if revoke(1) != 0 {
		t.Error("stale push applied")
	}
	if revoke(2) != 2 {
		t.Error("lifting push not applied everywhere")
	}
	if d := fetch(4); d.Nack {
		t.Fatalf("tag still denied after revocation lifted: %+v", d)
	}
}

// twoEdgeNet wires client(0) — ap(1) — edgeA(2) — core(3) — provider(4)
// plus a second edge edgeB(5) on the core, for roaming/sync scenarios.
func twoEdgeNet(t *testing.T) (*network.Network, *sim.Engine, *network.RouterNode, *network.RouterNode, *core.Provider, *stub) {
	t.Helper()
	g := buildGraph(
		[]topology.Kind{topology.KindClient, topology.KindAccessPoint, topology.KindEdgeRouter,
			topology.KindCoreRouter, topology.KindProvider, topology.KindEdgeRouter},
		[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {5, 3}},
	)
	engine := sim.NewEngine()
	net := network.New(engine, g, sim.NewStreams(7))
	cfg := network.RouterConfig{BFCapacity: 500, BFMaxFPP: 1e-4, CSCapacity: 100, PITLifetime: 2 * time.Second}

	registry := pki.NewRegistry()
	provSigner, err := pki.GenerateFast(rand.New(rand.NewSource(1)), names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := registry.Register(provSigner.Locator(), provSigner.Public()); err != nil {
		t.Fatal(err)
	}
	provider, err := core.NewProvider(names.MustParse("/prov0"), provSigner, 10*time.Second, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	provNode, err := network.NewOriginNode(net, 4, provider, registry, rand.New(rand.NewSource(3)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	edgeA, err := network.NewRouterNode(net, 2, true, registry, rand.New(rand.NewSource(4)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	coreR, err := network.NewRouterNode(net, 3, false, registry, rand.New(rand.NewSource(5)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	edgeB, err := network.NewRouterNode(net, 5, true, registry, rand.New(rand.NewSource(6)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	edgeA.FIB().Insert(names.MustParse("/prov0"), net.FaceToward(2, 3))
	edgeB.FIB().Insert(names.MustParse("/prov0"), net.FaceToward(5, 3))
	coreR.FIB().Insert(names.MustParse("/prov0"), net.FaceToward(3, 4))

	client := &stub{}
	net.SetNode(0, client)
	net.SetNode(1, network.NewAPNode(net, 1, 2*time.Second))
	net.SetNode(2, edgeA)
	net.SetNode(3, coreR)
	net.SetNode(4, provNode)
	net.SetNode(5, edgeB)
	return net, engine, edgeA, edgeB, provider, client
}

// TestSimNeighborBFSync drives a registration at edge A and checks one
// sync round leaves edge B's filter warm for the same tag, across both
// the one-shot and the scheduled entry points.
func TestSimNeighborBFSync(t *testing.T) {
	net, engine, edgeA, edgeB, provider, client := twoEdgeNet(t)

	signer, err := pki.GenerateFast(rand.New(rand.NewSource(40)), names.MustParse("/u/alice/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := core.NewClient(signer, rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatal(err)
	}
	provider.Enroll(cl.KeyLocator(), signer.Public(), 3)
	req, err := cl.NewRegistrationRequest(core.EmptyAccessPath.Accumulate(net.Graph.Nodes[1].ID))
	if err != nil {
		t.Fatal(err)
	}
	net.SendInterest(0, 0, &ndn.Interest{
		Name: names.MustParse("/prov0/register/alice/n1"), Kind: ndn.KindRegistration,
		Nonce: 1, Registration: &req,
	}, 0)
	engine.Run()
	var tag *core.Tag
	for _, d := range client.data {
		if d.Registration != nil {
			tag = d.Registration.Tag
		}
	}
	if tag == nil {
		t.Fatal("registration never completed")
	}
	if !edgeA.Tactic().Bloom().Contains(tag.CacheKey()) {
		t.Fatal("edge A missing the fresh tag")
	}
	if edgeB.Tactic().Bloom().Contains(tag.CacheKey()) {
		t.Fatal("edge B warm before any sync")
	}

	merged, err := net.SyncEdgeBFs()
	if err != nil {
		t.Fatal(err)
	}
	if merged == 0 {
		t.Fatal("sync round merged nothing")
	}
	if !edgeB.Tactic().Bloom().Contains(tag.CacheKey()) {
		t.Fatal("edge B cold after sync: the roaming client would re-pay verification")
	}
	if a, b := edgeA.Tactic().Bloom().FPP(), edgeB.Tactic().Bloom().FPP(); a == 0 || a != b {
		t.Fatalf("FPP after one round: A %g, B %g; want B to hold A's bits", a, b)
	}

	// Scheduled rounds: a later registration propagates without an
	// explicit call.
	tag2, err := core.IssueTag(providerSigner(t, provider), names.MustParse("/u/bob/KEY/1"), 2,
		core.EmptyAccessPath.Accumulate(net.Graph.Nodes[1].ID), engine.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	edgeA.Tactic().EdgeOnTagResponse(tag2)
	start := engine.Now()
	net.ScheduleBFSync(start, 100*time.Millisecond, start.Add(time.Second))
	engine.Run()
	if !edgeB.Tactic().Bloom().Contains(tag2.CacheKey()) {
		t.Fatal("scheduled sync never delivered the second tag")
	}
}

// providerSigner re-derives the harness provider signing key (the
// deterministic seed used by twoEdgeNet).
func providerSigner(t *testing.T, _ *core.Provider) *pki.FastKeyPair {
	t.Helper()
	signer, err := pki.GenerateFast(rand.New(rand.NewSource(1)), names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	return signer
}

// TestSimEpochRotation checks a rotation frame delivered network-wide:
// every router rotates once, stale epochs are ignored, and a
// previously-validated tag stays vouched for via the previous-epoch
// fallback.
func TestSimEpochRotation(t *testing.T) {
	net, engine, edgeA, edgeB, provider, _ := twoEdgeNet(t)
	tag, err := core.IssueTag(providerSigner(t, provider), names.MustParse("/u/alice/KEY/1"), 3,
		core.EmptyAccessPath.Accumulate(net.Graph.Nodes[1].ID), engine.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	edgeA.Tactic().EdgeOnTagResponse(tag)

	rotate := &ndn.Control{Kind: ndn.CtrlRotate, Version: 1}
	if got := net.Control(rotate); got != 3 {
		t.Fatalf("rotated %d routers, want 3", got)
	}
	if net.Control(rotate) != 0 {
		t.Error("stale epoch re-applied")
	}
	if edgeA.Tactic().Epoch() != 1 || edgeB.Tactic().Epoch() != 1 {
		t.Fatalf("epochs = %d, %d", edgeA.Tactic().Epoch(), edgeB.Tactic().Epoch())
	}
	if edgeA.Tactic().Bloom().FillRatio() != 0 {
		t.Error("rotation left the current filter populated")
	}
	// The fallback vouches without a re-verification.
	verifs := edgeA.Tactic().Validator().Verifications()
	dec := edgeA.Tactic().EdgeOnInterest(tag, core.EmptyAccessPath.Accumulate(net.Graph.Nodes[1].ID),
		names.MustParse("/prov0/obj0/chunk0"), engine.Now())
	if dec.Denied() || !dec.BFHit {
		t.Fatalf("post-rotation decision = %+v", dec)
	}
	if edgeA.Tactic().Validator().Verifications() != verifs {
		t.Error("rotation forced a re-verification")
	}
}

// controlState is the enforcement state a control frame can change (the
// end-state columns of internal/node/testdata/control.json).
type controlState struct {
	RevocationVersion uint64 `json:"revocation_version"`
	Revoked           int    `json:"revoked"`
	Epoch             uint64 `json:"epoch"`
	BFBitsSet         int    `json:"bf_bits_set"`
	BFSaturated       bool   `json:"bf_saturated"`
}

func controlStateOf(r *enforce.Router) controlState {
	st := controlState{RevocationVersion: r.Revocations().Version(), Revoked: r.Revocations().Len(),
		Epoch: r.Epoch(), BFSaturated: r.Bloom().Saturated()}
	for _, w := range r.Bloom().Words() {
		st.BFBitsSet += bits.OnesCount64(w.Word)
	}
	return st
}

// TestControlTable runs the node core's table of control frames
// (internal/node/testdata/control.json, shared with the core's own test
// and the live forwarder's) through one RouterNode and through
// Network.Control, which delivers each frame to every router: outcomes and
// end states match the core's.
func TestControlTable(t *testing.T) {
	raw, err := os.ReadFile("../node/testdata/control.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct {
		Name    string        `json:"name"`
		Before  []ndn.Control `json:"before"`
		Frame   ndn.Control   `json:"frame"`
		Outcome string        `json:"outcome"`
		controlState
	}
	if err := json.Unmarshal(raw, &cases); err != nil || len(cases) == 0 {
		t.Fatalf("%d cases, %v", len(cases), err)
	}
	for _, tc := range cases {
		t.Run(tc.Name, func(t *testing.T) {
			net, _, edgeA, edgeB, _, _ := twoEdgeNet(t)
			for i := range tc.Before {
				if st := edgeA.HandleControl(&tc.Before[i]); st.Outcome != node.ControlApplied {
					t.Fatalf("before[%d]: %+v", i, st)
				}
			}
			if st := edgeA.HandleControl(&tc.Frame); st.Outcome != tc.Outcome {
				t.Errorf("RouterNode: %+v, want outcome %s", st, tc.Outcome)
			}
			if got := controlStateOf(edgeA.Tactic()); got != tc.controlState {
				t.Errorf("RouterNode end state %+v, want %+v", got, tc.controlState)
			}

			net, _, edgeA, edgeB, _, _ = twoEdgeNet(t)
			for i := range tc.Before {
				if n := net.Control(&tc.Before[i]); n != 3 {
					t.Fatalf("before[%d] applied at %d routers", i, n)
				}
			}
			want := 0
			if tc.Outcome == node.ControlApplied {
				want = 3
			}
			if n := net.Control(&tc.Frame); n != want {
				t.Errorf("Network.Control applied at %d routers, want %d", n, want)
			}
			for _, r := range []*network.RouterNode{edgeA, edgeB} {
				if got := controlStateOf(r.Tactic()); got != tc.controlState {
					t.Errorf("router %d end state %+v, want %+v", r.Index(), got, tc.controlState)
				}
			}
		})
	}
}
