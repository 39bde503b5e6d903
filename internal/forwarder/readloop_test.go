package forwarder

import (
	"crypto/rand"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/node"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/transport"
)

// feedFace is an in-memory face: ReceiveInto decodes the frames a test
// feeds it into the reader's scratch target, as a transport face does,
// and every frame the forwarder sends on it is signalled on sent.
type feedFace struct {
	sinkFace
	in   chan []byte
	sent chan struct{}
}

func newFeedFace() *feedFace {
	return &feedFace{sinkFace: sinkFace{closed: make(chan struct{})},
		in: make(chan []byte), sent: make(chan struct{}, 1)}
}

func (f *feedFace) ReceiveInto(s *transport.Scratch) (transport.Packet, error) {
	select {
	case frame := <-f.in:
		if frame[0] == 0x05 { // the Interest TLV type
			return transport.Packet{Interest: &s.Interest}, ndn.DecodeInterestInto(&s.Interest, frame)
		}
		return transport.Packet{Data: &s.Data}, ndn.DecodeDataInto(&s.Data, &s.Content, frame)
	case <-f.closed:
		return transport.Packet{}, io.EOF
	}
}

func (f *feedFace) SendFrame([]byte) error { f.sent <- struct{}{}; return nil }

// coreHop is a core forwarder over two in-memory faces, downstream and
// upstream, with a one-chunk content store — caching either of its two
// objects evicts the other, so both keep missing and every Data is a
// cache insert over a full store — and the frames that fetch them.
type coreHop struct {
	fwd      *Forwarder
	down, up *feedFace
	upID     ndn.FaceID
	objects  [2]hopObject
}

type hopObject struct {
	name             names.Name
	interest, answer []byte
}

func newCoreHop(t *testing.T, provKey *pki.ECDSAKeyPair, reg *pki.Registry) *coreHop {
	t.Helper()
	prov, err := core.NewProvider(names.MustParse("/prov0"), provKey, time.Minute, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	fwd, err := New(Config{ID: "core-0", Role: RoleCore, Registry: reg, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fwd.Close() })
	fwd.cs = ndn.NewCS(1)
	fwd.node = node.New(fwd.tactic, fwd.fib, fwd.pit, fwd.cs, RoleCore, pitLifetime)
	h := &coreHop{fwd: fwd, down: newFeedFace(), up: newFeedFace()}
	fwd.AddFace(h.down, true)
	h.upID = fwd.AddFace(h.up, false)
	fwd.AddRoute(names.MustParse("/prov0"), h.upID)
	for k := range h.objects {
		name := names.MustParse(fmt.Sprintf("/prov0/open/chunk%d", k))
		content, err := prov.Publish(name, core.Public, make([]byte, 1024))
		if err != nil {
			t.Fatal(err)
		}
		o := hopObject{name: name}
		if o.interest, err = ndn.EncodeInterest(&ndn.Interest{Name: name, Kind: ndn.KindContent, Nonce: uint64(k + 1)}); err != nil {
			t.Fatal(err)
		}
		if o.answer, err = ndn.EncodeData(&ndn.Data{Name: name, Content: content}); err != nil {
			t.Fatal(err)
		}
		h.objects[k] = o
	}
	h.fetch(h.objects[0])
	h.fetch(h.objects[1]) // warm the intern tables, the PIT's recycled entries and the store's buffer
	return h
}

// forward sends o's Interest down and waits for it upstream.
func (h *coreHop) forward(o hopObject) {
	h.down.in <- o.interest
	<-h.up.sent
}

// fetch forwards o's Interest, then relays its answer, which is cached.
func (h *coreHop) fetch(o hopObject) {
	h.forward(o)
	h.up.in <- o.answer
	<-h.down.sent
}

// testIdentity is a provider key and the registry that trusts it.
func testIdentity(t *testing.T) (*pki.ECDSAKeyPair, *pki.Registry) {
	t.Helper()
	provKey, err := pki.GenerateECDSA(rand.Reader, names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	reg := pki.NewRegistry()
	if err := reg.Register(provKey.Locator(), provKey.Public()); err != nil {
		t.Fatal(err)
	}
	return provKey, reg
}

// TestCoreDataHopAllocs: a core forwarder relays a Data downstream and
// caches it with no allocation per Data. The reader decodes its Content
// into its own scratch, whose buffer carries over, and the content store
// copies it into the buffer of the item it rewrites.
func TestCoreDataHopAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	provKey, reg := testIdentity(t)
	h := newCoreHop(t, provKey, reg)
	next := 0
	if a := testing.AllocsPerRun(500, func() {
		h.fetch(h.objects[next])
		next ^= 1
	}); a != 0 {
		t.Errorf("a forward and its relayed, cached Data allocate %.1f/op, want 0", a)
	}
	if st := h.fwd.Stats(); st.Drops != 0 || st.NACKs != 0 || st.Data != 503 {
		t.Errorf("stats %+v: want 503 Data, no drops or NACKs", st)
	}
}

// TestReadLoopAllocs drives forwarders' face readers over in-memory
// faces and holds each path to what it keeps: at a core, a content-store
// hit and a forward allocate nothing (TestCoreDataHopAllocs holds the
// Data that answers a forward); at an edge, a Bloom-filter miss that
// parks, verifies and NACKs allocates only what the signature scheme
// does.
func TestReadLoopAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	provKey, reg := testIdentity(t)
	prov, err := core.NewProvider(names.MustParse("/prov0"), provKey, time.Minute, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	h := newCoreHop(t, provKey, reg)
	hit := h.objects[1]
	if a := testing.AllocsPerRun(500, func() {
		h.down.in <- hit.interest
		<-h.down.sent
	}); a != 0 {
		t.Errorf("a content-store hit allocates %.1f/op, want 0", a)
	}
	miss := h.objects[0]
	var recs [4]ndn.PITRecord
	if a := testing.AllocsPerRun(500, func() {
		h.forward(miss)
		if _, ok := h.fwd.pit.ConsumeFrom(miss.name, h.upID, recs[:0]); !ok {
			t.Fatal("forwarded Interest left no pending entry")
		}
	}); a != 0 {
		t.Errorf("a forward allocates %.1f/op, want 0", a)
	}
	if st := h.fwd.Stats(); st.Drops != 0 || st.NACKs != 0 {
		t.Errorf("stats %+v: want no drops or NACKs", st)
	}

	// An edge Bloom-filter miss: a forged tag — signed by a key that
	// claims the provider's locator — asks for a chunk the edge caches, so
	// the content decision parks it, a worker verifies it and the NACK
	// goes back. The repository's share of that is nothing: what it
	// allocates is the signature scheme's own.
	edge, err := New(Config{ID: "edge-0", Role: RoleEdge, Registry: reg, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()
	eDown, eUp := newFeedFace(), newFeedFace()
	edge.AddFace(eDown, true)
	edge.AddRoute(names.MustParse("/prov0"), edge.AddFace(eUp, false))
	ap := core.EmptyAccessPath.Accumulate("edge-0")
	genuine, err := core.IssueTag(provKey, names.MustParse("/users/alice/KEY/1"), 3, ap, time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	rogue, err := pki.GenerateECDSA(rand.Reader, provKey.Locator())
	if err != nil {
		t.Fatal(err)
	}
	issued, err := core.IssueTag(rogue, names.MustParse("/users/mallory/KEY/1"), 3, ap, time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	forged, err := core.DecodeTag(issued.Encode())
	if err != nil {
		t.Fatal(err)
	}
	private := names.MustParse("/prov0/private/chunk0")
	content, err := prov.Publish(private, 2, make([]byte, 1024))
	if err != nil {
		t.Fatal(err)
	}
	ask := func(tag *core.Tag) []byte {
		frame, err := ndn.EncodeInterest(&ndn.Interest{Name: private, Kind: ndn.KindContent, Nonce: 9, Tag: tag})
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	answer, err := ndn.EncodeData(&ndn.Data{Name: private, Content: content, Tag: genuine})
	if err != nil {
		t.Fatal(err)
	}
	eDown.in <- ask(genuine) // the genuine tag brings the chunk into the edge's store
	<-eUp.sent
	eUp.in <- answer
	<-eDown.sent
	probe := ask(forged)
	bfMiss := func() {
		eDown.in <- probe
		<-eDown.sent
	}
	for k := 0; k < 4; k++ { // warm the free lists and the worker's buffer
		bfMiss()
	}
	scheme := testing.AllocsPerRun(500, func() {
		reg.Verify(forged.ProviderKey, forged.SigningBytes(), forged.Signature) //nolint:errcheck // forged
	})
	if a := testing.AllocsPerRun(500, bfMiss); a > scheme {
		t.Errorf("an edge BF miss (park, verify, NACK) allocates %.1f/op, the signature scheme alone %.1f", a, scheme)
	}
	if st := edge.Stats(); st.NACKs == 0 || edge.tactic.Validator().Stats().Forged != st.NACKs {
		t.Errorf("edge stats %+v: want every miss verified and NACKed as forged", st)
	}
}

// TestReaderOwnedPacketsDoNotLeak: the edge reader decodes every packet
// into one target, so anything that outlives a packet's handling must
// hold a copy. One downstream face bursts Interests that park in the
// verify pool (unseen tags) among content-store hits, forwards, and
// aggregated Interests that are re-sent upstream, for other names and
// tags. Every Interest the edge sends upstream must be the one the client
// sent under its nonce — a parked job resumes with the Interest it
// parked — except that an aggregate's re-send carries the tag of its
// name's primary; and every reply must carry its own Interest's name and
// tag.
func TestReaderOwnedPacketsDoNotLeak(t *testing.T) {
	provKey, err := pki.GenerateECDSA(rand.Reader, names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	reg := pki.NewRegistry()
	if err := reg.Register(provKey.Locator(), provKey.Public()); err != nil {
		t.Fatal(err)
	}
	prov, err := core.NewProvider(names.MustParse("/prov0"), provKey, time.Minute, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	edge, err := New(Config{ID: "edge-0", Role: RoleEdge, Registry: reg, Seed: 1,
		Tactic: core.Config{EdgeValidateOnMiss: true}, VerifyBudget: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()
	upCli, upFwd := net.Pipe()
	up := transport.New(upCli)
	defer up.Close()
	edge.AddRoute(names.MustParse("/prov0"), edge.AddFace(transport.New(upFwd), false))
	cSide, fSide := net.Pipe()
	edge.AddFace(transport.New(fSide), true)
	client := transport.New(cSide)
	defer client.Close()

	tag := func(user string) *core.Tag {
		tg, err := core.IssueTag(provKey, names.MustNew("users", user, "KEY", "1"), 3,
			core.EmptyAccessPath.Accumulate("edge-0"), time.Now().Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		return tg
	}
	type sentKey struct{ name, tag string }
	var mu sync.Mutex
	sent := make(map[uint64]sentKey) // what the upstream must see, by nonce
	want := make(map[sentKey]int)
	nonce := uint64(0)
	// sendAs sends an Interest under tg that the upstream must see under
	// upstream: tg itself, or an aggregate's primary's tag.
	sendAs := func(name names.Name, tg, upstream *core.Tag) {
		nonce++
		k := sentKey{name.String(), string(tg.CacheKey())}
		mu.Lock()
		sent[nonce], want[k] = sentKey{k.name, string(upstream.CacheKey())}, want[k]+1
		mu.Unlock()
		if err := client.SendInterest(&ndn.Interest{Name: name, Kind: ndn.KindContent, Nonce: nonce, Tag: tg}); err != nil {
			t.Fatal(err)
		}
	}
	send := func(name names.Name, tg *core.Tag) { sendAs(name, tg, tg) }

	// The upstream answers every Interest it is sent, after checking it
	// is the client's Interest under that nonce — except the first for an
	// aggregated name, which it holds until the aggregate's re-send
	// arrives: so the second Interest finds the entry pending and must be
	// re-sent.
	aggPrefix := names.MustParse("/prov0/agg")
	go func() {
		held := make(map[string]bool)
		for {
			pkt, err := up.Receive()
			if err != nil {
				return
			}
			i := pkt.Interest
			if i == nil {
				continue
			}
			mu.Lock()
			k, ok := sent[i.Nonce]
			mu.Unlock()
			if got := (sentKey{i.Name.String(), string(i.Tag.CacheKey())}); !ok || got != k {
				t.Errorf("upstream got nonce %d for %s, want %s under the tag due", i.Nonce, got.name, k.name)
			}
			if i.Name.HasPrefix(aggPrefix) && !held[k.name] {
				held[k.name] = true
				continue
			}
			content, err := prov.Publish(i.Name, 1, []byte(i.Name.String()))
			if err != nil {
				t.Error(err)
				return
			}
			if err := up.SendData(&ndn.Data{Name: i.Name, Content: content, Tag: i.Tag}); err != nil {
				return
			}
		}
	}()
	// receive reads n replies, tallying each under its name and tag; it
	// runs beside the sender, because the pipes hold nothing.
	got := make(map[sentKey]int)
	receive := func(n int) error {
		client.SetIdleTimeout(10 * time.Second)
		for k := 0; k < n; {
			pkt, err := client.Receive()
			if err != nil {
				return fmt.Errorf("reply %d of %d: %w", k+1, n, err)
			}
			d := pkt.Data
			if d == nil {
				continue
			}
			k++
			if d.Nack || d.Content == nil || d.Tag == nil || !d.Content.Meta.Name.Equal(d.Name) {
				return fmt.Errorf("reply %+v: want content under its own name", d)
			}
			got[sentKey{d.Name.String(), string(d.Tag.CacheKey())}]++
		}
		return nil
	}

	// Warm: two verified tags and four cached names.
	known := []*core.Tag{tag("alice"), tag("bob")}
	hot := make([]names.Name, 4)
	for k := range hot {
		hot[k] = names.MustParse(fmt.Sprintf("/prov0/hot/chunk%d", k))
		send(hot[k], known[k%2])
		if err := receive(1); err != nil {
			t.Fatal(err)
		}
	}

	const rounds = 24
	unseen := make([]*core.Tag, rounds)
	for r := range unseen {
		unseen[r] = tag(fmt.Sprintf("u%d", r))
	}
	replies := make(chan error, 1)
	go func() { replies <- receive(5 * rounds) }()
	for r := 0; r < rounds; r++ {
		send(names.MustParse(fmt.Sprintf("/prov0/miss/chunk%d", r)), unseen[r])     // parks
		send(hot[r%len(hot)], known[r%2])                                           // content-store hit
		send(names.MustParse(fmt.Sprintf("/prov0/fwd/chunk%d", r)), known[(r+1)%2]) // forward
		agg := names.MustParse(fmt.Sprintf("/prov0/agg/chunk%d", r))
		send(agg, known[0])             // forward
		sendAs(agg, known[1], known[0]) // aggregate, re-sent upstream as the primary
	}
	if err := <-replies; err != nil {
		t.Fatal(err)
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("%s: %d replies with the Interest's tag, want %d", k.name, got[k], n)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d distinct (name, tag) replies, want %d", len(got), len(want))
	}
	if v := edge.tactic.Validator().Verifications(); v != uint64(len(known)+rounds) {
		t.Errorf("%d verifications at the edge, want %d: an unseen tag did not park", v, len(known)+rounds)
	}
	if hits := edge.Stats().CSHits; hits < rounds {
		t.Errorf("%d content-store hits, want at least %d", hits, rounds)
	}
}
