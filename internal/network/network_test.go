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

// buildGraph constructs an explicit topology for white-box tests.
func buildGraph(kinds []topology.Kind, links [][2]int) *topology.Graph {
	g := &topology.Graph{}
	spec := sim.LinkSpec{Latency: time.Millisecond, BandwidthBps: 1_000_000_000}
	for i, k := range kinds {
		g.Nodes = append(g.Nodes, topology.Node{Index: i, ID: k.String() + "-" + string(rune('0'+i)), Kind: k})
		g.Adj = append(g.Adj, nil)
	}
	for _, l := range links {
		idx := len(g.Edges)
		g.Edges = append(g.Edges, topology.Edge{A: l[0], B: l[1], Spec: spec})
		g.Adj[l[0]] = append(g.Adj[l[0]], topology.Neighbor{Node: l[1], Edge: idx})
		g.Adj[l[1]] = append(g.Adj[l[1]], topology.Neighbor{Node: l[0], Edge: idx})
	}
	return g
}

// stub is a scriptable endpoint capturing everything it receives.
type stub struct {
	data      []*ndn.Data
	interests []*ndn.Interest
}

func (s *stub) HandleInterest(i *ndn.Interest, from ndn.FaceID) { s.interests = append(s.interests, i) }
func (s *stub) HandleData(d *ndn.Data, from ndn.FaceID)         { s.data = append(s.data, d) }

// harness is a hand-wired line deployment:
//
//	client(0) — ap(1) — edge(2) — core(3) — provider(4)
type harness struct {
	engine   *sim.Engine
	net      *network.Network
	registry *pki.Registry
	provider *core.Provider
	provNode *network.RouterNode
	edge     *network.RouterNode
	core     *network.RouterNode
	ap       *network.APNode
	client   *stub
	content  *core.Content
	apValue  core.AccessPath
}

func newHarness(t *testing.T, cfg network.RouterConfig) *harness {
	t.Helper()
	g := buildGraph(
		[]topology.Kind{topology.KindClient, topology.KindAccessPoint, topology.KindEdgeRouter, topology.KindCoreRouter, topology.KindProvider},
		[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}},
	)
	engine := sim.NewEngine()
	streams := sim.NewStreams(1)
	net := network.New(engine, g, streams)

	if cfg.BFCapacity == 0 {
		cfg.BFCapacity = 500
	}
	if cfg.BFMaxFPP == 0 {
		cfg.BFMaxFPP = 1e-4
	}
	if cfg.CSCapacity == 0 {
		cfg.CSCapacity = 100
	}
	if cfg.PITLifetime == 0 {
		cfg.PITLifetime = 2 * time.Second
	}

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
	content, err := provider.Publish(names.MustParse("/prov0/obj0/chunk0"), 2, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	provNode.AddContent(content)

	edge, err := network.NewRouterNode(net, 2, true, registry, rand.New(rand.NewSource(4)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	coreR, err := network.NewRouterNode(net, 3, false, registry, rand.New(rand.NewSource(5)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Routes toward the provider.
	edge.FIB().Insert(names.MustParse("/prov0"), net.FaceToward(2, 3))
	coreR.FIB().Insert(names.MustParse("/prov0"), net.FaceToward(3, 4))

	ap := network.NewAPNode(net, 1, 2*time.Second)
	client := &stub{}

	net.SetNode(0, client)
	net.SetNode(1, ap)
	net.SetNode(2, edge)
	net.SetNode(3, coreR)
	net.SetNode(4, provNode)

	return &harness{
		engine:   engine,
		net:      net,
		registry: registry,
		provider: provider,
		provNode: provNode,
		edge:     edge,
		core:     coreR,
		ap:       ap,
		client:   client,
		content:  content,
		apValue:  core.EmptyAccessPath.Accumulate(g.Nodes[1].ID),
	}
}

// enrollClient creates an enrolled client identity.
func (h *harness) enrollClient(t *testing.T, seed int64, level core.AccessLevel) *core.Client {
	t.Helper()
	signer, err := pki.GenerateFast(rand.New(rand.NewSource(seed)), names.MustParse("/u/alice/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := core.NewClient(signer, rand.New(rand.NewSource(seed+1)))
	if err != nil {
		t.Fatal(err)
	}
	h.provider.Enroll(cl.KeyLocator(), signer.Public(), level)
	return cl
}

// registerViaNetwork performs an in-band registration for cl.
func (h *harness) registerViaNetwork(t *testing.T, cl *core.Client, nonce uint64) *core.Tag {
	t.Helper()
	req, err := cl.NewRegistrationRequest(h.apValue)
	if err != nil {
		t.Fatal(err)
	}
	h.net.SendInterest(0, 0, &ndn.Interest{
		Name:         names.MustParse("/prov0/register/alice").MustAppend("n" + string(rune('0'+nonce))),
		Kind:         ndn.KindRegistration,
		Nonce:        nonce,
		Registration: &req,
	}, 0)
	h.engine.Run()
	for _, d := range h.client.data {
		if d.Registration != nil {
			if err := cl.StoreRegistration(h.provider.Prefix(), d.Registration); err != nil {
				t.Fatal(err)
			}
			return d.Registration.Tag
		}
	}
	t.Fatal("no registration response delivered")
	return nil
}

func TestRegistrationRoundTrip(t *testing.T) {
	h := newHarness(t, network.RouterConfig{})
	cl := h.enrollClient(t, 10, 3)
	tag := h.registerViaNetwork(t, cl, 1)
	if tag == nil || tag.Level != 3 {
		t.Fatalf("tag = %+v", tag)
	}
	// The edge inserted the fresh tag into its Bloom filter
	// (Protocol 2 lines 11-12).
	if !h.edge.Tactic().Bloom().Contains(tag.CacheKey()) {
		t.Error("edge BF should hold the fresh tag")
	}
}

func TestContentFetchAndCaching(t *testing.T) {
	h := newHarness(t, network.RouterConfig{})
	cl := h.enrollClient(t, 20, 3)
	tag := h.registerViaNetwork(t, cl, 1)
	h.client.data = nil

	send := func(nonce uint64) {
		h.net.SendInterest(0, 0, &ndn.Interest{
			Name:  h.content.Meta.Name,
			Kind:  ndn.KindContent,
			Nonce: nonce,
			Tag:   tag,
		}, 0)
		h.engine.Run()
	}
	send(2)
	if len(h.client.data) != 1 || h.client.data[0].Content == nil || h.client.data[0].Nack {
		t.Fatalf("first fetch: %+v", h.client.data)
	}
	// The core router cached the chunk on the reverse path; the second
	// fetch is a cache hit that never reaches the provider.
	servedBefore := served(h.provNode)
	send(3)
	if len(h.client.data) != 2 {
		t.Fatalf("second fetch not delivered")
	}
	if served(h.provNode) != servedBefore {
		t.Error("second fetch should be served from an in-network cache")
	}
	// The harness gives every router a CS, so the hit lands at the
	// first cache on the path — the edge.
	edgeHits, _, _ := statsCS(h.edge)
	coreHits, _, _ := statsCS(h.core)
	if edgeHits+coreHits == 0 {
		t.Error("no cache hit recorded at any router")
	}
}

// served counts an origin's content answers without a NACK: every reply
// there is a content-store hit, and a refused one is a NACK.
func served(origin *network.RouterNode) uint64 {
	st := origin.Stats()
	return st.CSHits - st.NACKsSent
}

// statsCS extracts content-store stats from a router.
func statsCS(r *network.RouterNode) (hits, misses, evicted uint64) {
	st := r.Stats()
	return st.CSHits, st.CSMisses, 0
}

func TestForgedTagBlocked(t *testing.T) {
	h := newHarness(t, network.RouterConfig{})
	rogue, err := pki.GenerateFast(rand.New(rand.NewSource(66)), h.provider.KeyLocator())
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
		Nonce: 9,
		Tag:   forged,
	}, 0)
	h.engine.Run()
	for _, d := range h.client.data {
		if d.Content != nil && !d.Nack {
			t.Fatal("forged tag received content")
		}
	}
	// The content router NACKed and the edge dropped the delivery.
	st := h.edge.Stats()
	if st.Drops[node.DropUndeliverable] == 0 {
		t.Errorf("edge drops = %v, want an undeliverable drop", st.Drops)
	}
}

func TestAccessPathEnforcedAtEdge(t *testing.T) {
	h := newHarness(t, network.RouterConfig{})
	cl := h.enrollClient(t, 30, 3)
	tag := h.registerViaNetwork(t, cl, 1)
	h.client.data = nil

	// Replay the tag with a spoofed accumulator pre-load. The AP resets
	// the accumulator, so the edge sees the true path — which matches
	// here; instead simulate a *different* AP by issuing a tag recorded
	// for another location.
	elsewhere, err := core.IssueTag(mustSigner(t, h), cl.KeyLocator(), 3, core.AccessPathOf("ap-elsewhere"), h.engine.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	h.net.SendInterest(0, 0, &ndn.Interest{
		Name:       h.content.Meta.Name,
		Kind:       ndn.KindContent,
		Nonce:      11,
		Tag:        elsewhere,
		AccessPath: core.AccessPathOf("ap-elsewhere"), // pre-load attempt
	}, 0)
	h.engine.Run()
	// The client gets a pure NACK, not content.
	if len(h.client.data) == 0 {
		t.Fatal("expected a NACK back")
	}
	for _, d := range h.client.data {
		if d.Content != nil {
			t.Fatal("location-mismatched tag received content")
		}
		if !d.Nack {
			t.Fatal("expected NACK")
		}
	}
	if h.edge.Stats().Drops["access_path"] == 0 {
		t.Error("edge should record an access-path mismatch")
	}
	_ = tag
}

// mustSigner rebuilds the provider signer (seed 1 in newHarness).
func mustSigner(t *testing.T, h *harness) pki.Signer {
	t.Helper()
	s, err := pki.GenerateFast(rand.New(rand.NewSource(1)), names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTaglessPublicContentServed(t *testing.T) {
	h := newHarness(t, network.RouterConfig{})
	open, err := h.provider.Publish(names.MustParse("/prov0/open/chunk0"), core.Public, []byte("open"))
	if err != nil {
		t.Fatal(err)
	}
	h.provNode.AddContent(open)
	h.net.SendInterest(0, 0, &ndn.Interest{
		Name:  open.Meta.Name,
		Kind:  ndn.KindContent,
		Nonce: 21,
	}, 0)
	h.engine.Run()
	if len(h.client.data) != 1 || h.client.data[0].Content == nil || h.client.data[0].Nack {
		t.Fatalf("public content not delivered: %+v", h.client.data)
	}
}

func TestTaglessPrivateContentBlocked(t *testing.T) {
	h := newHarness(t, network.RouterConfig{})
	h.net.SendInterest(0, 0, &ndn.Interest{
		Name:  h.content.Meta.Name,
		Kind:  ndn.KindContent,
		Nonce: 22,
	}, 0)
	h.engine.Run()
	for _, d := range h.client.data {
		if d.Content != nil && !d.Nack {
			t.Fatal("tagless request received private content")
		}
	}
}

func TestDisableEnforcementBaseline(t *testing.T) {
	h := newHarness(t, network.RouterConfig{DisableEnforcement: true})
	h.net.SendInterest(0, 0, &ndn.Interest{
		Name:  h.content.Meta.Name,
		Kind:  ndn.KindContent,
		Nonce: 23,
	}, 0)
	h.engine.Run()
	if len(h.client.data) != 1 || h.client.data[0].Content == nil {
		t.Fatal("open baseline should deliver to anyone")
	}
}

func TestNoPrivateCacheBaseline(t *testing.T) {
	h := newHarness(t, network.RouterConfig{NoPrivateCache: true})
	cl := h.enrollClient(t, 40, 3)
	tag := h.registerViaNetwork(t, cl, 1)
	h.client.data = nil
	for nonce := uint64(2); nonce < 5; nonce++ {
		h.net.SendInterest(0, 0, &ndn.Interest{
			Name:  h.content.Meta.Name,
			Kind:  ndn.KindContent,
			Nonce: nonce,
			Tag:   tag,
		}, 0)
		h.engine.Run()
	}
	// Every private fetch hits the origin: no cache hits anywhere.
	if got := served(h.provNode); got != 3 {
		t.Errorf("origin served %d, want 3 (no private caching)", got)
	}
	hits, _, _ := statsCS(h.core)
	if hits != 0 {
		t.Errorf("core CS hits = %d, want 0", hits)
	}
}

func TestAPResetsAccessPathPreload(t *testing.T) {
	// An end host pre-loading the accumulator cannot spoof another
	// location: the first on-path entity resets before accumulating.
	g := buildGraph(
		[]topology.Kind{topology.KindClient, topology.KindAccessPoint, topology.KindEdgeRouter},
		[][2]int{{0, 1}, {1, 2}},
	)
	engine := sim.NewEngine()
	net := network.New(engine, g, sim.NewStreams(1))
	ap := network.NewAPNode(net, 1, time.Second)
	edgeStub := &stub{}
	net.SetNode(0, &stub{})
	net.SetNode(1, ap)
	net.SetNode(2, edgeStub)

	net.SendInterest(0, 0, &ndn.Interest{
		Name:       names.MustParse("/prov0/x"),
		Kind:       ndn.KindContent,
		Nonce:      1,
		AccessPath: core.AccessPath(0xdeadbeef), // pre-load attempt
	}, 0)
	engine.Run()
	if len(edgeStub.interests) != 1 {
		t.Fatal("AP did not forward")
	}
	want := core.EmptyAccessPath.Accumulate(g.Nodes[1].ID)
	if got := edgeStub.interests[0].AccessPath; got != want {
		t.Errorf("access path = %x, want reset-then-accumulated %x", got, want)
	}
}

func TestInterestAggregationAtCore(t *testing.T) {
	// Two edges behind one core: simultaneous requests for the same
	// chunk are aggregated into one upstream Interest, and the content
	// satisfies both.
	g := buildGraph(
		[]topology.Kind{
			topology.KindClient, topology.KindAccessPoint, topology.KindEdgeRouter, // 0,1,2
			topology.KindClient, topology.KindAccessPoint, topology.KindEdgeRouter, // 3,4,5
			topology.KindCoreRouter, topology.KindProvider, // 6,7
		},
		[][2]int{{0, 1}, {1, 2}, {2, 6}, {3, 4}, {4, 5}, {5, 6}, {6, 7}},
	)
	engine := sim.NewEngine()
	streams := sim.NewStreams(1)
	net := network.New(engine, g, streams)

	cfg := network.RouterConfig{BFCapacity: 500, BFMaxFPP: 1e-4, CSCapacity: 100, PITLifetime: 2 * time.Second}
	registry := pki.NewRegistry()
	signer, err := pki.GenerateFast(rand.New(rand.NewSource(1)), names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := registry.Register(signer.Locator(), signer.Public()); err != nil {
		t.Fatal(err)
	}
	provider, err := core.NewProvider(names.MustParse("/prov0"), signer, time.Minute, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	provNode, err := network.NewOriginNode(net, 7, provider, registry, rand.New(rand.NewSource(3)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	content, err := provider.Publish(names.MustParse("/prov0/obj0/chunk0"), 1, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	provNode.AddContent(content)

	mkEdge := func(idx int) *network.RouterNode {
		r, err := network.NewRouterNode(net, idx, true, registry, rand.New(rand.NewSource(int64(idx))), cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.FIB().Insert(names.MustParse("/prov0"), net.FaceToward(idx, 6))
		return r
	}
	edgeA, edgeB := mkEdge(2), mkEdge(5)
	coreR, err := network.NewRouterNode(net, 6, false, registry, rand.New(rand.NewSource(6)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	coreR.FIB().Insert(names.MustParse("/prov0"), net.FaceToward(6, 7))

	clientA, clientB := &stub{}, &stub{}
	net.SetNode(0, clientA)
	net.SetNode(1, network.NewAPNode(net, 1, time.Second))
	net.SetNode(2, edgeA)
	net.SetNode(3, clientB)
	net.SetNode(4, network.NewAPNode(net, 4, time.Second))
	net.SetNode(5, edgeB)
	net.SetNode(6, coreR)
	net.SetNode(7, provNode)

	// Two enrolled clients, pre-issued valid tags for their locations.
	mkTag := func(seed int64, apID string, who string) *core.Tag {
		tag, err := core.IssueTag(signer, names.MustParse("/u/"+who+"/KEY/1"), 3,
			core.EmptyAccessPath.Accumulate(apID), engine.Now().Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		return tag
	}
	tagA := mkTag(10, g.Nodes[1].ID, "a")
	tagB := mkTag(11, g.Nodes[4].ID, "b")

	net.SendInterest(0, 0, &ndn.Interest{Name: content.Meta.Name, Kind: ndn.KindContent, Nonce: 1, Tag: tagA}, 0)
	net.SendInterest(3, 0, &ndn.Interest{Name: content.Meta.Name, Kind: ndn.KindContent, Nonce: 2, Tag: tagB}, 0)
	engine.Run()

	if len(clientA.data) != 1 || clientA.data[0].Content == nil {
		t.Errorf("client A not served: %+v", clientA.data)
	}
	if len(clientB.data) != 1 || clientB.data[0].Content == nil {
		t.Errorf("client B not served: %+v", clientB.data)
	}
	// The core router aggregated the second Interest.
	st := coreR.Stats()
	if st.PITAggregated != 1 {
		t.Errorf("core PIT aggregated = %d, want 1", st.PITAggregated)
	}
	// The provider answered exactly once.
	if got := served(provNode); got != 1 {
		t.Errorf("provider served %d, want 1 (aggregation)", got)
	}
}
