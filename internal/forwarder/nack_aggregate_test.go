package forwarder

import (
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

// TestNACKAlongsideDataLive pins the paper's §5.B trade-off on the live
// forwarder: when an upstream answer NACKs the primary (invalid) tag
// but carries the content alongside, valid requesters aggregated in the
// same PIT entry still get the Data — each aggregated tag is judged on
// its own by enforce.Router.OnDataRecord, not by the primary's verdict.
// The test plays the upstream itself and sends the one answer for the
// entry, so which Data consumes it is decided by the test. The
// sim-plane twin is internal/oracle's TestNACKAlongsideDataSim.
func TestNACKAlongsideDataLive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	provKey, err := pki.GenerateFast(rng, names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	reg := pki.NewRegistry()
	if err := reg.Register(provKey.Locator(), provKey.Public()); err != nil {
		t.Fatal(err)
	}
	prov, err := core.NewProvider(names.MustParse("/prov0"), provKey, time.Minute, rng)
	if err != nil {
		t.Fatal(err)
	}
	name := names.MustParse("/prov0/report/chunk0")
	content, err := prov.Publish(name, 1, []byte("classified"))
	if err != nil {
		t.Fatal(err)
	}

	edge, err := New(Config{ID: "edge-nad", Role: RoleEdge, Registry: reg, Seed: 7, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()

	// The test holds the upstream end of the edge's only route.
	upCli, upFwd := net.Pipe()
	defer upCli.Close()
	up := transport.New(upCli)
	edge.AddRoute(names.MustParse("/prov0"), edge.AddFace(transport.New(upFwd), false))

	ap := core.EmptyAccessPath.Accumulate("edge-nad")
	expiry := time.Now().Add(time.Hour)
	// Mallory's tag is forged — signed by a rogue key under the
	// provider's locator — so it passes the edge's Interest-time checks
	// (prefix, expiry, access path; no signature there) and is only
	// caught upstream.
	rogue, err := pki.GenerateFast(rng, names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	forged, err := core.IssueTag(rogue, names.MustParse("/users/mallory/KEY/1"), 2, ap, expiry)
	if err != nil {
		t.Fatal(err)
	}
	valid, err := core.IssueTag(provKey, names.MustParse("/users/alice/KEY/1"), 2, ap, expiry)
	if err != nil {
		t.Fatal(err)
	}

	newClient := func() (*transport.Conn, net.Conn) {
		cSide, fSide := net.Pipe()
		edge.AddFace(transport.New(fSide), true)
		return transport.New(cSide), cSide
	}
	mallory, malloryRaw := newClient()
	defer mallory.Close()
	alice, aliceRaw := newClient()
	defer alice.Close()

	// Mallory's Interest opens the PIT entry; reading it from the
	// upstream guarantees the entry (and its out-face) is recorded
	// before Alice's arrives.
	if err := mallory.SendInterest(&ndn.Interest{Name: name, Kind: ndn.KindContent, Nonce: 1, Tag: forged}); err != nil {
		t.Fatal(err)
	}
	upCli.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck // pipes support deadlines
	pkt, err := up.Receive()
	if err != nil || pkt.Interest == nil {
		t.Fatalf("upstream did not see the primary Interest: pkt=%+v err=%v", pkt, err)
	}
	// Alice aggregates onto the pending entry; the edge re-sends the
	// primary's Interest under her fresh nonce upstream (loss recovery),
	// which doubles as the proof that aggregation — not a second PIT
	// entry — happened.
	if err := alice.SendInterest(&ndn.Interest{Name: name, Kind: ndn.KindContent, Nonce: 2, Tag: valid}); err != nil {
		t.Fatal(err)
	}
	pkt, err = up.Receive()
	if err != nil || pkt.Interest == nil || pkt.Interest.Nonce != 2 {
		t.Fatalf("aggregated Interest was not re-sent upstream: pkt=%+v err=%v", pkt, err)
	}

	// One upstream answer for the shared entry: the primary's NACK with
	// the content alongside.
	type result struct {
		d   *ndn.Data
		err error
	}
	read := func(c *transport.Conn, raw net.Conn) chan result {
		ch := make(chan result, 1)
		go func() {
			raw.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck // pipes support deadlines
			for {
				pkt, err := c.Receive()
				if err != nil {
					ch <- result{nil, err}
					return
				}
				if pkt.Data != nil && pkt.Data.Name.Equal(name) {
					ch <- result{pkt.Data, nil}
					return
				}
			}
		}()
		return ch
	}
	malloryCh, aliceCh := read(mallory, malloryRaw), read(alice, aliceRaw)
	if err := up.SendData(&ndn.Data{Name: name, Content: content, Tag: forged, Nack: true, NackReason: core.ErrTagForged}); err != nil {
		t.Fatal(err)
	}

	mr := <-malloryCh
	if mr.err != nil {
		t.Fatalf("mallory read: %v", mr.err)
	}
	if !mr.d.Nack {
		t.Error("forged primary was served; want explicit NACK")
	}
	if mr.d.Content != nil {
		t.Error("forged primary received the content alongside its NACK")
	}
	ar := <-aliceCh
	if ar.err != nil {
		t.Fatalf("alice read: %v", ar.err)
	}
	if ar.d.Nack {
		t.Error("valid aggregated requester was NACKed")
	}
	if ar.d.Content == nil {
		t.Fatal("valid aggregated requester got no content")
	}
	if got, want := string(ar.d.Content.Payload), string(content.Payload); got != want {
		t.Errorf("delivered payload mismatch")
	}
}

// TestLiveResendAsksThePrimarysQuestion: a fresh nonce for a pending
// name is re-sent upstream under the primary's tag and F, so both
// answers for the entry answer one question and whichever arrives first
// decides each requester as its own tag deserves. The test plays the
// upstream, answers every Interest as its tag deserves (a denial is a
// NACK with the content alongside, a valid tag gets the content under
// the Interest's F) and answers the re-send before the primary. Were the
// re-send to carry the aggregate's tag, a denied aggregate's NACK would
// deny a valid primary, and a valid aggregate's answer would serve a
// denied primary (and teach the edge's Bloom filter a forged tag).
func TestLiveResendAsksThePrimarysQuestion(t *testing.T) {
	name := names.MustParse("/prov0/report/chunk0")
	rogue, err := pki.GenerateFast(rand.New(rand.NewSource(13)), names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	deserves := map[string]error{"valid": nil, "forged": core.ErrTagForged,
		"low": core.ErrInsufficientLevel, "tagless": core.ErrNoTag}
	rows := []struct{ primary, aggregate string }{
		{"valid", "forged"}, {"forged", "valid"},
		{"valid", "low"}, {"low", "valid"},
		{"valid", "tagless"}, {"tagless", "valid"},
	}
	for _, scheme := range []core.Scheme{core.SchemeTACTIC, core.SchemeIBAC} {
		for _, row := range rows {
			if scheme == core.SchemeIBAC && (row.primary == "forged" || row.aggregate == "forged") {
				continue // an IBAC edge verifies an unseen tag itself: a forged one never reaches the PIT
			}
			t.Run(scheme.String()+"/"+row.primary+"_then_"+row.aggregate, func(t *testing.T) {
				h := newHeldEdge(t, scheme)
				forged, err := core.IssueTag(rogue, names.MustParse("/users/mallory/KEY/1"), 3, h.ap, h.expires)
				if err != nil {
					t.Fatal(err)
				}
				tags := map[string]*core.Tag{"valid": h.tag(t, "alice", 3), "low": h.tag(t, "lee", 1),
					"forged": forged, "tagless": nil}
				content := h.content(t, name, 2)
				key := func(tg *core.Tag) string {
					if tg == nil {
						return ""
					}
					return string(tg.CacheKey())
				}
				answer := func(i *ndn.Interest) {
					d := &ndn.Data{Name: i.Name, Content: content, Tag: i.Tag, Flag: i.Flag}
					for kind, tg := range tags {
						if key(tg) == key(i.Tag) {
							d.Nack, d.NackReason = deserves[kind] != nil, deserves[kind]
						}
					}
					h.answer(t, d)
				}

				primary := h.ask(t, name, tags[row.primary], 1)
				held := h.forwarded
				aggregate := h.ask(t, name, tags[row.aggregate], 2)
				if key(h.forwarded.Tag) != key(tags[row.primary]) {
					t.Errorf("the re-send carried another tag than the primary's")
				}
				answer(h.forwarded) // the re-send's answer consumes the entry
				answer(held)        // unsolicited by now

				for _, got := range []struct {
					kind string
					ch   <-chan *ndn.Data
				}{{row.primary, primary}, {row.aggregate, aggregate}} {
					d, want := <-got.ch, deserves[got.kind]
					switch {
					case d == nil:
						t.Errorf("%s requester got no answer", got.kind)
					case want == nil && (d.Nack || d.Content == nil):
						t.Errorf("%s requester: %+v, want the content", got.kind, d)
					case want != nil && (!d.Nack || d.Content != nil || !errors.Is(d.NackReason, want)):
						t.Errorf("%s requester: %+v, want a bare NACK for %v", got.kind, d, want)
					}
				}
				if h.edge.Tactic().Bloom().Contains(forged.CacheKey()) {
					t.Error("the edge's Bloom filter holds the forged tag")
				}
			})
		}
	}
}
