package forwarder

import (
	crand "crypto/rand"
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/transport"
)

// The tests in this file pin one delivery rule per requester on a live
// edge in tacticd's default configuration: what a requester receives
// does not depend on whether its Interest was answered from the edge's
// content store, as the primary of a PIT entry or as an aggregate, and
// Public content teaches the edge nothing.

// TestLiveForgedTagOnPublicLearnsNothing sends a forged level-4 tag
// (every field right, signed by a rogue key) for a Public chunk and then
// for a private one. The Public chunk is served, as it is to anyone, but
// the edge must not learn the tag from it: the private chunk is NACKed
// as forged and the edge's Bloom filter gains no insertion.
func TestLiveForgedTagOnPublicLearnsNothing(t *testing.T) {
	n := startLiveNetwork(t, time.Minute)
	defer n.Close()
	rogue, err := pki.GenerateECDSA(crand.Reader, n.provKey.Locator())
	if err != nil {
		t.Fatal(err)
	}
	forged, err := core.IssueTag(rogue, names.MustParse("/users/mallory/KEY/1"), 4,
		core.EmptyAccessPath.Accumulate("edge-0"), time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	bf := n.edgeFwd.tactic.Bloom()
	inserted := bf.Stats().Insertions
	if d := n.askTag(t, n.prefix.MustAppend("open", "chunk0"), forged, 1, forged.Encode()); d == nil || d.Nack || d.Content == nil {
		t.Fatalf("Public chunk under a forged tag: %+v, want the content", d)
	}
	if d := n.askTag(t, n.prefix.MustAppend("report", "chunk0"), forged, 2, forged.Encode()); d == nil || !d.Nack ||
		d.Content != nil || !errors.Is(d.NackReason, core.ErrTagForged) {
		t.Errorf("private chunk after the Public one: %+v, want a bare NACK for a forged tag", d)
	}
	if got := bf.Stats().Insertions - inserted; got != 0 {
		t.Errorf("the forged tag added %d Bloom-filter insertions at the edge, want 0", got)
	}
}

// TestLiveEdgeCSHitNacksWithoutContent: a level-4 client puts a level-4
// chunk into the edge's content store, then a valid level-1 tag asks for
// it. The edge answers from its store with a NACK that carries no
// content: the provider wraps one content key to every enrolled client,
// so content alongside the NACK would be content the level-1 client can
// read.
func TestLiveEdgeCSHitNacksWithoutContent(t *testing.T) {
	n := startLiveNetwork(t, time.Minute)
	defer n.Close()
	if _, err := n.producer.PublishObject("secret", 4, []byte("level four"), 1024); err != nil {
		t.Fatal(err)
	}
	name := n.prefix.MustAppend("secret", "chunk0")
	dora := n.newLiveClient(t, "dora", 4)
	defer dora.Close()
	if _, err := dora.Fetch(name, liveTimeout); err != nil {
		t.Fatal(err)
	}
	hits := n.edgeFwd.Stats().CSHits
	low, err := core.IssueTag(n.provKey, names.MustParse("/users/lee/KEY/1"), 1,
		core.EmptyAccessPath.Accumulate("edge-0"), time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	d := n.askTag(t, name, low, 1, low.Encode())
	if d == nil || !d.Nack || !errors.Is(d.NackReason, core.ErrInsufficientLevel) {
		t.Fatalf("level-1 tag on a level-4 hit: %+v, want a NACK for insufficient level", d)
	}
	if d.Content != nil {
		t.Errorf("the NACK carried the level-4 chunk (%q) to a level-1 client", d.Content.Payload)
	}
	if n.edgeFwd.Stats().CSHits != hits {
		t.Error("a denied request counted as a content-store hit")
	}
}

// heldEdge is a live edge in tacticd's default configuration, under a
// scheme, whose only route is a face the test holds: the test reads what
// the edge forwards and answers it, so which request is the primary of a
// PIT entry and which aggregates behind it is decided by the test, not
// by a race.
type heldEdge struct {
	edge    *Forwarder
	up      *transport.Conn
	upRaw   net.Conn
	prov    *pki.FastKeyPair
	ap      core.AccessPath
	expires time.Time
	// forwarded is the last Interest the edge sent upstream.
	forwarded *ndn.Interest
}

func newHeldEdge(t *testing.T, scheme core.Scheme) *heldEdge {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	prov, err := pki.GenerateFast(rng, names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	reg := pki.NewRegistry()
	if err := reg.Register(prov.Locator(), prov.Public()); err != nil {
		t.Fatal(err)
	}
	edge, err := New(Config{ID: "edge-held", Role: RoleEdge, Registry: reg, Seed: 11,
		Tactic: core.Config{Scheme: scheme}, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	upRaw, upFwd := net.Pipe()
	edge.AddRoute(names.MustParse("/prov0"), edge.AddFace(transport.New(upFwd), false))
	h := &heldEdge{edge: edge, up: transport.New(upRaw), upRaw: upRaw, prov: prov,
		ap: core.EmptyAccessPath.Accumulate("edge-held"), expires: time.Now().Add(time.Hour)}
	t.Cleanup(func() {
		h.up.Close()
		edge.Close()
	})
	return h
}

// tag issues a genuine tag of level for user.
func (h *heldEdge) tag(t *testing.T, user string, level core.AccessLevel) *core.Tag {
	t.Helper()
	tag, err := core.IssueTag(h.prov, names.MustNew("users", user, "KEY", "1"), level, h.ap, h.expires)
	if err != nil {
		t.Fatal(err)
	}
	return tag
}

// content is a chunk of level published under the held route.
func (h *heldEdge) content(t *testing.T, name names.Name, level core.AccessLevel) *core.Content {
	t.Helper()
	prov, err := core.NewProvider(names.MustParse("/prov0"), h.prov, time.Minute, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	c, err := prov.Publish(name, level, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// ask sends an Interest for name under tag (nil for none) on a client
// face of its own and waits until the edge has forwarded it upstream —
// the first request opens the PIT entry, a later one aggregates and is
// re-sent (loss recovery), so reading it proves the entry holds it; what
// was read is h.forwarded. It returns a channel that yields the client's
// answer, or nil at the deadline.
func (h *heldEdge) ask(t *testing.T, name names.Name, tag *core.Tag, nonce uint64) <-chan *ndn.Data {
	t.Helper()
	cSide, fSide := net.Pipe()
	h.edge.AddFace(transport.New(fSide), true)
	cli := transport.New(cSide)
	t.Cleanup(func() { cli.Close() })
	if err := cli.SendInterest(&ndn.Interest{Name: name, Kind: ndn.KindContent, Nonce: nonce, Tag: tag}); err != nil {
		t.Fatal(err)
	}
	h.upRaw.SetReadDeadline(time.Now().Add(liveTimeout)) //nolint:errcheck // pipes support deadlines
	pkt, err := h.up.Receive()
	if err != nil || pkt.Interest == nil || pkt.Interest.Nonce != nonce {
		t.Fatalf("nonce %d was not forwarded upstream: pkt=%+v err=%v", nonce, pkt, err)
	}
	h.forwarded = pkt.Interest
	ch := make(chan *ndn.Data, 1)
	go func() {
		cSide.SetReadDeadline(time.Now().Add(liveTimeout)) //nolint:errcheck // pipes support deadlines
		for {
			pkt, err := cli.Receive()
			if err != nil {
				ch <- nil
				return
			}
			if pkt.Data != nil && pkt.Data.Name.Equal(name) {
				ch <- pkt.Data
				return
			}
		}
	}()
	return ch
}

// answer plays the upstream's one answer for the pending entry.
func (h *heldEdge) answer(t *testing.T, d *ndn.Data) {
	t.Helper()
	if err := h.up.SendData(d); err != nil {
		t.Fatal(err)
	}
}

// TestLiveAggregatedLowLevelTagNacked: a valid level-1 tag aggregated
// behind an authorized level-4 request for a level-4 chunk gets a bare
// NACK for its level, as it would have as the primary; the primary is
// served.
func TestLiveAggregatedLowLevelTagNacked(t *testing.T) {
	h := newHeldEdge(t, core.SchemeTACTIC)
	name := names.MustParse("/prov0/secret/chunk0")
	high := h.tag(t, "dora", 4)
	primary := h.ask(t, name, high, 1)
	aggregate := h.ask(t, name, h.tag(t, "lee", 1), 2)
	h.answer(t, &ndn.Data{Name: name, Content: h.content(t, name, 4), Tag: high})
	if d := <-primary; d == nil || d.Nack || d.Content == nil {
		t.Errorf("authorized primary: %+v, want the content", d)
	}
	d := <-aggregate
	if d == nil || !d.Nack || d.Content != nil || !errors.Is(d.NackReason, core.ErrInsufficientLevel) {
		t.Errorf("level-1 aggregate: %+v, want a bare NACK for insufficient level", d)
	}
}

// TestLiveTaglessPrivateNacked: a tagless request for private content
// is told so with an explicit NACK, whether it opened the PIT entry or
// aggregated behind a tagged one, instead of being left to time out.
func TestLiveTaglessPrivateNacked(t *testing.T) {
	name := names.MustParse("/prov0/report/chunk0")
	t.Run("primary", func(t *testing.T) {
		h := newHeldEdge(t, core.SchemeTACTIC)
		tagless := h.ask(t, name, nil, 1)
		h.answer(t, &ndn.Data{Name: name, Content: h.content(t, name, 2), Nack: true, NackReason: core.ErrNoTag})
		if d := <-tagless; d == nil || !d.Nack || d.Content != nil || !errors.Is(d.NackReason, core.ErrNoTag) {
			t.Errorf("tagless primary: %+v, want a bare NACK for a missing tag", d)
		}
	})
	t.Run("aggregate", func(t *testing.T) {
		h := newHeldEdge(t, core.SchemeTACTIC)
		valid := h.tag(t, "alice", 3)
		primary := h.ask(t, name, valid, 1)
		tagless := h.ask(t, name, nil, 2)
		h.answer(t, &ndn.Data{Name: name, Content: h.content(t, name, 2), Tag: valid})
		if d := <-primary; d == nil || d.Nack || d.Content == nil {
			t.Errorf("tagged primary: %+v, want the content", d)
		}
		if d := <-tagless; d == nil || !d.Nack || d.Content != nil || !errors.Is(d.NackReason, core.ErrNoTag) {
			t.Errorf("tagless aggregate: %+v, want a bare NACK for a missing tag", d)
		}
	})
}
