package forwarder

import (
	"crypto/rand"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/obs"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/transport"
)

// assembleRecorders pours every node's flight recorder into one
// collector, the way tactictrace assembles per-node JSONL files.
func assembleRecorders(tracers ...*obs.Tracer) *obs.Collector {
	c := obs.NewCollector()
	for _, t := range tracers {
		if rec := t.Recorder(); rec != nil {
			c.AddSnapshot(rec.Snapshot())
		}
	}
	return c
}

// traceWith finds an assembled trace satisfying pred.
func traceWith(c *obs.Collector, pred func(*obs.Trace) bool) *obs.Trace {
	for _, tr := range c.Traces() {
		if pred(tr) {
			return tr
		}
	}
	return nil
}

// awaitEdgeVerifySpan waits until the edge's recorder holds a span with
// a verify event. A verify-pool worker ends the Interest's span after
// forwarding it, so on a busy host the reply can reach the client
// before the span reaches the recorder.
func awaitEdgeVerifySpan(t *testing.T, edge *obs.Tracer) {
	t.Helper()
	waitFor(t, edge.Node()+" to record its verify span", func() bool {
		return traceWith(assembleRecorders(edge), func(tr *obs.Trace) bool {
			return hasEvent(tr, edge.Node(), "verify")
		}) != nil
	})
}

// hasEvent reports whether any span in the trace carries the stage,
// optionally restricted to one node.
func hasEvent(tr *obs.Trace, node, stage string) bool {
	for _, s := range tr.Spans {
		if node != "" && s.Node != node {
			continue
		}
		for _, ev := range s.Events {
			if ev.Stage == stage {
				return true
			}
		}
	}
	return false
}

// TestTraceSmoke is the make-check gate: boot the standard live
// topology (client -> edge -> core -> producer), trace one fetch at
// 1:1 sampling, and assert the assembled trace crosses at least two
// forwarding hops and records a signature verification at the edge.
func TestTraceSmoke(t *testing.T) {
	newTracer := func(node, role string) *obs.Tracer {
		tr := obs.NewTracerRecorder(node, 1.0, io.Discard, obs.NewRecorder(256))
		tr.SetRole(role)
		return tr
	}
	tracers := map[string]*obs.Tracer{
		"edge-0": newTracer("edge-0", "edge"),
		"core-0": newTracer("core-0", "core"),
	}
	n := startLiveNetworkCfg(t, time.Minute, nil, nil, nil, func(cfg *Config) {
		cfg.Tracer = tracers[cfg.ID]
		if cfg.Role == RoleEdge {
			// Make the edge verify signatures itself on Bloom-filter
			// misses, so the trace attributes the crypto to the edge hop.
			cfg.Tactic = core.Config{EdgeValidateOnMiss: true}
		}
	})
	defer n.Close()
	prodTracer := newTracer("prod-0", "producer")
	n.producer.SetTracer(prodTracer)

	alice := n.newLiveClient(t, "alice", 3)
	defer alice.Close()
	clientTracer := newTracer("alice", "client")
	alice.SetTracer(clientTracer, 1)

	// First fetch registers alice and warms her tag into the edge Bloom
	// filter; resetting the filter forces the next fetch through the
	// verify path, the expensive branch the trace must attribute.
	if _, _, err := alice.FetchObject(n.prefix.MustAppend("report"), liveTimeout); err != nil {
		t.Fatal(err)
	}
	n.edgeFwd.Tactic().Bloom().Reset()
	if _, _, err := alice.FetchObject(n.prefix.MustAppend("report"), liveTimeout); err != nil {
		t.Fatal(err)
	}
	if alice.LastTraceID() == 0 {
		t.Fatal("client recorded no trace ID")
	}

	awaitEdgeVerifySpan(t, tracers["edge-0"])
	c := assembleRecorders(clientTracer, tracers["edge-0"], tracers["core-0"], prodTracer)
	tr := traceWith(c, func(tr *obs.Trace) bool {
		return tr.Hops() >= 2 && hasEvent(tr, "edge-0", "verify")
	})
	if tr == nil {
		for _, got := range c.Traces() {
			t.Logf("trace %s hops=%d spans=%d outcome=%s", obs.HexID(got.ID), got.Hops(), len(got.Spans), got.Outcome())
		}
		t.Fatal("no assembled trace with >= 2 hops and an edge verify span")
	}
	for _, s := range tr.Spans {
		if s.Hop == 0 && s.Outcome != "delivered" {
			t.Errorf("client span outcome = %q, want delivered", s.Outcome)
		}
	}
	// The client's trace ID must be resolvable in the assembled set.
	if c.Get(alice.LastTraceID()) == nil {
		t.Errorf("client's last trace %s not assembled", obs.HexID(alice.LastTraceID()))
	}
}

// TestTraceEndToEnd runs the issue's acceptance scenario: a >= 3-hop
// live topology (two edges sharing one core in front of the producer),
// where the trace of a request served from the core's content store
// shows the edge's signature verification and the core's Bloom-filter /
// flag-F decision — visible both through /tracez and through offline
// assembly.
func TestTraceEndToEnd(t *testing.T) {
	prefix := names.MustParse("/prov0")
	provKey, err := pki.GenerateECDSA(rand.Reader, names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	registry := pki.NewRegistry()
	if err := registry.Register(provKey.Locator(), provKey.Public()); err != nil {
		t.Fatal(err)
	}
	provider, err := core.NewProvider(prefix, provKey, time.Minute, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	producer, err := NewProducer(provider, registry, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("end-to-end traced payload")
	if _, err := producer.PublishObject("doc", 2, payload, 1024); err != nil {
		t.Fatal(err)
	}

	var cleanup []func()
	defer func() {
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]()
		}
	}()
	listen := func(serve func(transport.FaceListener) error) string {
		ln, err := transport.ListenFace("127.0.0.1:0", transport.UDPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		go serve(ln) //nolint:errcheck // exits on close
		cleanup = append(cleanup, func() { ln.Close() })
		return ln.Addr().String()
	}

	newTracer := func(node, role string) *obs.Tracer {
		tr := obs.NewTracerRecorder(node, 1.0, io.Discard, obs.NewRecorder(256))
		tr.SetRole(role)
		return tr
	}
	prodTracer := newTracer("prod-0", "producer")
	producer.SetTracer(prodTracer)
	prodAddr := listen(producer.ServeFaces)
	cleanup = append(cleanup, func() { producer.Close() })

	coreTracer := newTracer("core-0", "core")
	coreFwd, err := New(Config{ID: "core-0", Role: RoleCore, Registry: registry, Seed: 1, Tracer: coreTracer})
	if err != nil {
		t.Fatal(err)
	}
	coreAddr := listen(coreFwd.ServeFaces)
	cleanup = append(cleanup, func() { coreFwd.Close() })
	up, err := coreFwd.DialUpstream(prodAddr)
	if err != nil {
		t.Fatal(err)
	}
	coreFwd.AddRoute(prefix, up)

	edgeTracers := []*obs.Tracer{newTracer("edge-0", "edge"), newTracer("edge-1", "edge")}
	edgeAddrs := make([]string, 2)
	var edge1 *Forwarder
	for i := 0; i < 2; i++ {
		id := []string{"edge-0", "edge-1"}[i]
		fwd, err := New(Config{ID: id, Role: RoleEdge, Registry: registry, Seed: int64(i + 2), Tracer: edgeTracers[i],
			Tactic: core.Config{EdgeValidateOnMiss: true}})
		if err != nil {
			t.Fatal(err)
		}
		edgeAddrs[i] = listen(fwd.ServeFaces)
		cleanup = append(cleanup, func() { fwd.Close() })
		up, err := fwd.DialUpstream(coreAddr)
		if err != nil {
			t.Fatal(err)
		}
		fwd.AddRoute(prefix, up)
		if i == 1 {
			edge1 = fwd
		}
	}

	newClient := func(name, edgeID, edgeAddr string) (*Client, *obs.Tracer) {
		key, err := pki.GenerateECDSA(rand.Reader, names.MustNew("users", name, "KEY", "1"))
		if err != nil {
			t.Fatal(err)
		}
		identity, err := core.NewClient(key, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		provider.Enroll(identity.KeyLocator(), key.Public(), 3)
		cl, err := Dial(edgeAddr, identity, name, edgeID)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer(name, "client")
		cl.SetTracer(tr, 1)
		return cl, tr
	}

	// Client A via edge-0 pulls the object through the core, warming the
	// core's content store.
	alice, aliceTracer := newClient("alice", "edge-0", edgeAddrs[0])
	defer alice.Close()
	if _, _, err := alice.FetchObject(prefix.MustAppend("doc"), liveTimeout); err != nil {
		t.Fatal(err)
	}

	// Client B via edge-1: the core now answers from its CS, so B's trace
	// shows edge-1 verifying and the core's cached-content decision.
	// Registering first and then resetting edge-1's Bloom filter forces
	// B's content Interest through edge-1's verify path (registration
	// otherwise pre-warms the tag into the filter).
	bob, bobTracer := newClient("bob", "edge-1", edgeAddrs[1])
	defer bob.Close()
	if err := bob.Register(prefix, liveTimeout); err != nil {
		t.Fatal(err)
	}
	edge1.Tactic().Bloom().Reset()
	if _, _, err := bob.FetchObject(prefix.MustAppend("doc"), liveTimeout); err != nil {
		t.Fatal(err)
	}

	awaitEdgeVerifySpan(t, edgeTracers[1])
	all := []*obs.Tracer{aliceTracer, bobTracer, prodTracer, coreTracer}
	all = append(all, edgeTracers...)
	c := assembleRecorders(all...)

	bobTrace := traceWith(c, func(tr *obs.Trace) bool {
		return c.Get(bob.LastTraceID()) != nil && tr.ID == bob.LastTraceID()
	})
	if bobTrace == nil {
		t.Fatal("bob's last trace not assembled")
	}
	want := traceWith(c, func(tr *obs.Trace) bool {
		return tr.Hops() >= 3 && hasEvent(tr, "edge-1", "verify") &&
			(hasEvent(tr, "core-0", "bf_lookup") || hasEvent(tr, "core-0", "flag"))
	})
	if want == nil {
		for _, got := range c.Traces() {
			t.Logf("trace %s hops=%d spans=%d outcome=%s", obs.HexID(got.ID), got.Hops(), len(got.Spans), got.Outcome())
			for _, s := range got.Spans {
				t.Logf("  hop=%d node=%s kind=%s outcome=%s events=%v", s.Hop, s.Node, s.Kind, s.Outcome, s.Events)
			}
		}
		t.Fatal("no >=3-hop trace with edge-1 verify and a core BF/flag decision")
	}

	// The same trace must be visible through the fleet telemetry view.
	mux := http.NewServeMux()
	obs.AttachTracez(mux, edgeTracers[1])
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/tracez")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/tracez status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), obs.HexID(want.ID)) {
		t.Errorf("/tracez index does not list trace %s:\n%s", obs.HexID(want.ID), body)
	}
	resp, err = http.Get(srv.URL + "/tracez?trace=" + obs.HexID(want.ID))
	if err != nil {
		t.Fatal(err)
	}
	water, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/tracez?trace status %d", resp.StatusCode)
	}
	if !strings.Contains(string(water), "verify") {
		t.Errorf("waterfall lacks the edge verify stage:\n%s", water)
	}
}
