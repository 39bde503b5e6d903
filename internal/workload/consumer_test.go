package workload_test

import (
	"math/rand"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/metrics"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/network"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/sim"
	"github.com/tactic-icn/tactic/internal/topology"
	"github.com/tactic-icn/tactic/internal/workload"
)

// consumerHarness wires one consumer through an AP and an edge router to
// a provider:
//
//	consumer(0) — ap(1) — edge(2) — provider(3)
type consumerHarness struct {
	engine   *sim.Engine
	net      *network.Network
	provider *core.Provider
	provNode *network.RouterNode
	edge     *network.RouterNode
	catalog  *workload.Catalog
	zipf     *workload.Zipf
	regNames map[string]names.Name
	apValue  core.AccessPath
}

// buildLine constructs the explicit four-node topology.
func buildLine() *topology.Graph {
	g := &topology.Graph{}
	spec := sim.LinkSpec{Latency: time.Millisecond, BandwidthBps: 1_000_000_000}
	kinds := []topology.Kind{topology.KindClient, topology.KindAccessPoint, topology.KindEdgeRouter, topology.KindProvider}
	for i, k := range kinds {
		g.Nodes = append(g.Nodes, topology.Node{Index: i, ID: k.String() + "-" + string(rune('0'+i)), Kind: k})
		g.Adj = append(g.Adj, nil)
	}
	for i := 0; i+1 < len(kinds); i++ {
		idx := len(g.Edges)
		g.Edges = append(g.Edges, topology.Edge{A: i, B: i + 1, Spec: spec})
		g.Adj[i] = append(g.Adj[i], topology.Neighbor{Node: i + 1, Edge: idx})
		g.Adj[i+1] = append(g.Adj[i+1], topology.Neighbor{Node: i, Edge: idx})
	}
	return g
}

func newConsumerHarness(t *testing.T) *consumerHarness {
	t.Helper()
	g := buildLine()
	engine := sim.NewEngine()
	net := network.New(engine, g, sim.NewStreams(1))
	cfg := network.RouterConfig{BFCapacity: 500, BFMaxFPP: 1e-4, CSCapacity: 100, PITLifetime: 2 * time.Second}

	registry := pki.NewRegistry()
	signer, err := pki.GenerateFast(rand.New(rand.NewSource(1)), names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := registry.Register(signer.Locator(), signer.Public()); err != nil {
		t.Fatal(err)
	}
	provider, err := core.NewProvider(names.MustParse("/prov0"), signer, 10*time.Second, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	provNode, err := network.NewOriginNode(net, 3, provider, registry, rand.New(rand.NewSource(3)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	catalog, err := workload.BuildCatalog(workload.CatalogConfig{
		Providers: 1, ObjectsPerProvider: 3, ChunksPerObject: 4, ChunkSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, catalog.ChunkSize)
	for _, obj := range catalog.Objects {
		for k := 0; k < obj.Chunks; k++ {
			content, err := provider.Publish(obj.ChunkName(k), obj.Level, payload)
			if err != nil {
				t.Fatal(err)
			}
			provNode.AddContent(content)
		}
	}
	zipf, err := workload.NewZipf(len(catalog.Objects), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	edge, err := network.NewRouterNode(net, 2, true, registry, rand.New(rand.NewSource(4)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	edge.FIB().Insert(names.MustParse("/prov0"), net.FaceToward(2, 3))
	ap := network.NewAPNode(net, 1, 2*time.Second)
	net.SetNode(1, ap)
	net.SetNode(2, edge)
	net.SetNode(3, provNode)

	return &consumerHarness{
		engine:   engine,
		net:      net,
		provider: provider,
		provNode: provNode,
		edge:     edge,
		catalog:  catalog,
		zipf:     zipf,
		regNames: map[string]names.Name{provider.Prefix().Key(): provNode.RegistrationName()},
		apValue:  core.EmptyAccessPath.Accumulate(g.Nodes[1].ID),
	}
}

// installConsumer creates a consumer at node 0 with the given source.
func (h *consumerHarness) installConsumer(t *testing.T, src workload.TagSource, cfg workload.ConsumerConfig) *workload.Consumer {
	t.Helper()
	c := workload.NewConsumer(h.net, 0, src, h.catalog, h.zipf, rand.New(rand.NewSource(9)), h.regNames, cfg)
	h.net.SetNode(0, c)
	return c
}

// enrolledClient builds and enrolls a client identity.
func (h *consumerHarness) enrolledClient(t *testing.T) (*core.Client, *workload.HonestSource) {
	t.Helper()
	signer, err := pki.GenerateFast(rand.New(rand.NewSource(7)), names.MustParse("/u/alice/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := core.NewClient(signer, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	h.provider.Enroll(cl.KeyLocator(), signer.Public(), 3)
	return cl, workload.NewHonestSource(cl, h.apValue)
}

func TestConsumerFetchLifecycle(t *testing.T) {
	h := newConsumerHarness(t)
	_, src := h.enrolledClient(t)
	c := h.installConsumer(t, src, workload.ConsumerConfig{
		Window:         3,
		RequestTimeout: time.Second,
		RequestGap:     20 * time.Millisecond,
		StartJitter:    10 * time.Millisecond,
	})
	c.Start()
	h.engine.RunFor(5 * time.Second)

	st := c.Stats()
	if st.Delivery.Requested == 0 {
		t.Fatal("consumer issued nothing")
	}
	if st.Delivery.Ratio() < 0.99 {
		t.Errorf("delivery ratio %.4f (%d/%d), timeouts %d, nacks %d, sourceErrs %d",
			st.Delivery.Ratio(), st.Delivery.Received, st.Delivery.Requested,
			st.Timeouts, st.NACKs, st.SourceErrors)
	}
	if st.Latency.Count() == 0 || st.Latency.Mean() <= 0 {
		t.Error("no latency recorded")
	}
	if c.ID() == "" {
		t.Error("empty consumer ID")
	}
	// Tag series recorded the registration.
	q, r := c.TagSeries()
	sumQ, sumR := seriesSum(q), seriesSum(r)
	if sumQ < 1 || sumR < 1 {
		t.Errorf("tag series Q=%v R=%v", sumQ, sumR)
	}
	if c.LatencySeries().Len() == 0 {
		t.Error("latency series empty")
	}
}

func seriesSum(ts *metrics.TimeSeries) float64 {
	var sum float64
	for _, v := range ts.Sums() {
		sum += v
	}
	return sum
}

func TestConsumerSharedCollectors(t *testing.T) {
	h := newConsumerHarness(t)
	_, src := h.enrolledClient(t)
	c := h.installConsumer(t, src, workload.DefaultConsumerConfig())
	shared := metrics.NewTimeSeries(time.Second)
	sharedQ := metrics.NewTimeSeries(time.Second)
	sharedR := metrics.NewTimeSeries(time.Second)
	c.AttachCollectors(shared, sharedQ, sharedR)
	c.Start()
	h.engine.RunFor(3 * time.Second)
	if shared.Len() == 0 || seriesSum(sharedQ) == 0 {
		t.Error("shared collectors received nothing")
	}
	// Nil collectors are ignored (no panic, keeps existing ones).
	c.AttachCollectors(nil, nil, nil)
}

func TestConsumerTimeoutFreesWindow(t *testing.T) {
	h := newConsumerHarness(t)
	// Remove the provider so every request stalls and times out.
	h.net.SetNode(3, nil)
	_, src := h.enrolledClient(t)
	c := h.installConsumer(t, src, workload.ConsumerConfig{
		Window:         2,
		RequestTimeout: 500 * time.Millisecond,
		RequestGap:     20 * time.Millisecond,
	})
	c.Start()
	h.engine.RunFor(5 * time.Second)
	st := c.Stats()
	if st.Timeouts < 5 {
		t.Errorf("timeouts = %d, want many (provider is gone)", st.Timeouts)
	}
	if st.Delivery.Received != 0 {
		t.Error("received chunks from a dead provider?!")
	}
	// The window kept freeing: more than Window requests were attempted
	// (registrations count as in-flight requests too).
	if st.Timeouts <= 2 {
		t.Error("window never freed after timeouts")
	}
}

func TestConsumerNACKFreesSlot(t *testing.T) {
	h := newConsumerHarness(t)
	// A shared-tag style source: valid-looking tag recorded for another
	// location. The edge NACKs every request immediately.
	signer, err := pki.GenerateFast(rand.New(rand.NewSource(1)), names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	elsewhere := core.AccessPathOf("ap-elsewhere")
	tag, err := core.IssueTag(signer, names.MustParse("/u/eve/KEY/1"), 3, elsewhere, sim.Epoch.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	victim, err := core.NewClient(mustSigner(t, 11, "/u/eve/KEY/1"), rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.StoreRegistration(h.provider.Prefix(), &core.RegistrationResponse{Tag: tag}); err != nil {
		t.Fatal(err)
	}
	src := workload.NewSharedTagSource(victim, elsewhere)
	c := h.installConsumer(t, src, workload.ConsumerConfig{
		Window:         2,
		RequestTimeout: time.Second,
		RequestGap:     20 * time.Millisecond,
	})
	c.Start()
	h.engine.RunFor(3 * time.Second)
	st := c.Stats()
	if st.NACKs == 0 {
		t.Error("edge NACKs never reached the consumer")
	}
	if st.Delivery.Received != 0 {
		t.Error("mismatched access path still delivered")
	}
}

func mustSigner(t *testing.T, seed int64, locator string) pki.Signer {
	t.Helper()
	s, err := pki.GenerateFast(rand.New(rand.NewSource(seed)), names.MustParse(locator))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConsumerMoveToUnknownSourceKind(t *testing.T) {
	h := newConsumerHarness(t)
	c := h.installConsumer(t, workload.NoTagSource{}, workload.DefaultConsumerConfig())
	// NoTagSource has no location; MoveTo still re-homes the link. The
	// only other AP-capable target here is the edge... there is no
	// second AP in the line harness, so moving to the same AP is a
	// no-op and any other target violates the device-degree rule only
	// if the device had >1 faces. Move to the same AP:
	if err := c.MoveTo(1); err != nil {
		t.Errorf("same-AP move should succeed: %v", err)
	}
	if c.Moves() != 1 {
		t.Errorf("moves = %d", c.Moves())
	}
}
