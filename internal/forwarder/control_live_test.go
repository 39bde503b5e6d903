package forwarder

import (
	"encoding/json"
	"math/bits"
	mrand "math/rand"
	"net"
	"os"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/bloom"
	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/enforce"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/node"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/transport"
)

// rawEdgeConn opens a bare transport connection to an address.
func rawConn(t *testing.T, addr string) *transport.Conn {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := transport.New(raw)
	t.Cleanup(func() { conn.Close() })
	return conn
}

// fetchWithTag sends one content Interest carrying tag and returns the
// response.
func fetchWithTag(t *testing.T, conn *transport.Conn, name names.Name, tag *core.Tag, nonce uint64) *ndn.Data {
	t.Helper()
	if err := conn.SendInterest(&ndn.Interest{Name: name, Kind: ndn.KindContent, Nonce: nonce, Tag: tag}); err != nil {
		t.Fatal(err)
	}
	for {
		pkt, err := conn.Receive()
		if err != nil {
			t.Fatal(err)
		}
		if pkt.Data != nil {
			return pkt.Data
		}
		// Skip flooded control frames arriving on this face.
	}
}

// waitRevoked polls until every router's revocation set contains id.
func waitRevoked(t *testing.T, id core.TagID, routers ...*enforce.Router) {
	t.Helper()
	deadline := time.Now().Add(liveTimeout)
	for {
		all := true
		for _, r := range routers {
			if !r.Revocations().Contains(id) {
				all = false
			}
		}
		if all {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("revocation did not reach every router")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestLiveRevocationPush is the tentpole's live acceptance check: one
// CtrlRevoke frame pushed to the edge floods to every router, and the
// revoked tag — still signed, still far from T_e, still in every Bloom
// filter — is denied on the next request.
func TestLiveRevocationPush(t *testing.T) {
	n := startLiveNetworkCfg(t, time.Minute, nil, nil, nil, func(cfg *Config) {
		cfg.Tactic.EdgeValidateOnMiss = true
	})
	defer n.Close()

	tag, err := core.IssueTag(n.provKey, names.MustParse("/users/alice/KEY/1"), 3,
		core.EmptyAccessPath.Accumulate("edge-0"), time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}

	client := rawConn(t, n.edgeAddr)
	if d := fetchWithTag(t, client, n.prefix.MustAppend("report", "chunk0"), tag, 1); d.Nack || d.Content == nil {
		t.Fatalf("valid tag not served before revocation: %+v", d)
	}

	// Push the revocation to the edge only; the flood must carry it to
	// the core router too.
	pusher := rawConn(t, n.edgeAddr)
	if err := pusher.SendControl(&ndn.Control{
		Kind: ndn.CtrlRevoke, Version: 1, Origin: "issuer",
		Revoked: []core.TagID{tag.ID()},
	}); err != nil {
		t.Fatal(err)
	}
	waitRevoked(t, tag.ID(), n.edgeFwd.Tactic(), n.coreFwd.Tactic())

	// Denied at the edge well before T_e, even though the tag's bits are
	// still in the filter from the pre-revocation fetch.
	if d := fetchWithTag(t, client, n.prefix.MustAppend("report", "chunk1"), tag, 2); !d.Nack {
		t.Fatalf("revoked tag still served: %+v", d)
	}

	// A stale re-push (same version) is a no-op, not a re-flood.
	if err := pusher.SendControl(&ndn.Control{Kind: ndn.CtrlRevoke, Version: 1, Origin: "issuer"}); err != nil {
		t.Fatal(err)
	}
	// An advancing push that drops the ID restores service.
	if err := pusher.SendControl(&ndn.Control{Kind: ndn.CtrlRevoke, Version: 2, Origin: "issuer"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(liveTimeout)
	for n.edgeFwd.Tactic().Revocations().Contains(tag.ID()) {
		if time.Now().After(deadline) {
			t.Fatal("un-revocation never applied")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if d := fetchWithTag(t, client, n.prefix.MustAppend("report", "chunk2"), tag, 3); d.Nack {
		t.Fatalf("tag still denied after revocation lifted: %+v", d)
	}
}

// TestLiveEpochRotation pushes a CtrlRotate and checks the filter
// rotates once (flood loops are version-terminated) while the
// previously-validated tag keeps being served without re-verification.
func TestLiveEpochRotation(t *testing.T) {
	n := startLiveNetworkCfg(t, time.Minute, nil, nil, nil, func(cfg *Config) {
		cfg.Tactic.EdgeValidateOnMiss = true
	})
	defer n.Close()

	tag, err := core.IssueTag(n.provKey, names.MustParse("/users/alice/KEY/1"), 3,
		core.EmptyAccessPath.Accumulate("edge-0"), time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	client := rawConn(t, n.edgeAddr)
	if d := fetchWithTag(t, client, n.prefix.MustAppend("report", "chunk0"), tag, 1); d.Nack {
		t.Fatalf("warm-up fetch failed: %+v", d)
	}
	verifs := n.edgeFwd.Tactic().Validator().Verifications()

	pusher := rawConn(t, n.edgeAddr)
	if err := pusher.SendControl(&ndn.Control{Kind: ndn.CtrlRotate, Version: 1, Origin: "issuer"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(liveTimeout)
	for n.edgeFwd.Tactic().Epoch() != 1 || n.coreFwd.Tactic().Epoch() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("rotation did not reach every router: edge=%d core=%d",
				n.edgeFwd.Tactic().Epoch(), n.coreFwd.Tactic().Epoch())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Served from the previous-epoch fallback: no second verification.
	if d := fetchWithTag(t, client, n.prefix.MustAppend("report", "chunk1"), tag, 2); d.Nack {
		t.Fatalf("fetch after rotation failed: %+v", d)
	}
	if got := n.edgeFwd.Tactic().Validator().Verifications(); got != verifs {
		t.Errorf("rotation forced re-verification: %d -> %d", verifs, got)
	}
}

// TestLiveNeighborBFSync is the roaming acceptance check: edge-0
// validates a roaming tag, advertises its filter to edge-1, and the
// client's handover fetch at edge-1 is served from the synced filter
// with zero signature verifications there.
func TestLiveNeighborBFSync(t *testing.T) {
	n := startLiveNetworkCfg(t, time.Minute, nil, nil, nil, func(cfg *Config) {
		cfg.Tactic.EdgeValidateOnMiss = true
	})
	defer n.Close()

	// Second edge attached to the same core.
	edge2, err := New(Config{ID: "edge-1", Role: RoleEdge, Registry: n.registry, Seed: 3,
		Tactic: core.Config{EdgeValidateOnMiss: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer edge2.Close()
	ln, err := transport.ListenFace("127.0.0.1:0", transport.UDPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go edge2.ServeFaces(ln) //nolint:errcheck // exits on close
	up, err := edge2.DialUpstream(n.coreAddr)
	if err != nil {
		t.Fatal(err)
	}
	edge2.AddRoute(n.prefix, up)

	// Peer edge-0 -> edge-1 for BF sync.
	peer, err := n.edgeFwd.DialUpstream(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	n.edgeFwd.AddSyncPeer(peer)

	// A roaming tag: AP wildcard, so it is valid from either edge.
	roam, err := core.IssueTag(n.provKey, names.MustParse("/users/alice/KEY/1"), 3,
		core.AccessPathAny, time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}

	// Validate at edge-0 (one ECDSA verification) and advertise.
	c0 := rawConn(t, n.edgeAddr)
	if d := fetchWithTag(t, c0, n.prefix.MustAppend("report", "chunk0"), roam, 1); d.Nack {
		t.Fatalf("fetch at home edge failed: %+v", d)
	}
	if got := n.edgeFwd.Tactic().Validator().Verifications(); got == 0 {
		t.Fatal("home edge did not verify the roaming tag")
	}
	n.edgeFwd.SyncBF()
	deadline := time.Now().Add(liveTimeout)
	for edge2.Tactic().Bloom().FillRatio() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("BF sync never reached the neighbor edge")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Handover: the same tag at edge-1 hits the warm filter — no second
	// signature verification anywhere on the new edge.
	c1 := rawConn(t, ln.Addr().String())
	if d := fetchWithTag(t, c1, n.prefix.MustAppend("report", "chunk0"), roam, 2); d.Nack || d.Content == nil {
		t.Fatalf("roaming fetch at new edge failed: %+v", d)
	}
	if got := edge2.Tactic().Validator().Verifications(); got != 0 {
		t.Errorf("roaming fetch re-verified at the new edge: %d verifications", got)
	}
}

// TestLivePeriodicBFSync covers the ticker-driven advertisement path
// (Config.BFSyncInterval) rather than an explicit SyncBF call.
func TestLivePeriodicBFSync(t *testing.T) {
	n := startLiveNetworkCfg(t, time.Minute, nil, nil, nil, func(cfg *Config) {
		cfg.Tactic.EdgeValidateOnMiss = true
		cfg.BFSyncInterval = 5 * time.Millisecond
	})
	defer n.Close()

	edge2, err := New(Config{ID: "edge-1", Role: RoleEdge, Registry: n.registry, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer edge2.Close()
	ln, err := transport.ListenFace("127.0.0.1:0", transport.UDPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go edge2.ServeFaces(ln) //nolint:errcheck // exits on close

	peer, err := n.edgeFwd.DialUpstream(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	n.edgeFwd.AddSyncPeer(peer)

	roam, err := core.IssueTag(n.provKey, names.MustParse("/users/alice/KEY/1"), 3,
		core.AccessPathAny, time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	c0 := rawConn(t, n.edgeAddr)
	if d := fetchWithTag(t, c0, n.prefix.MustAppend("report", "chunk0"), roam, 1); d.Nack {
		t.Fatalf("fetch failed: %+v", d)
	}
	deadline := time.Now().Add(liveTimeout)
	for edge2.Tactic().Bloom().FillRatio() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("periodic BF sync never delivered")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// bareEdge starts an edge forwarder with no faces and an empty filter.
func bareEdge(t *testing.T, id string) *Forwarder {
	t.Helper()
	f, err := New(Config{ID: id, Role: RoleEdge, Registry: pki.NewRegistry(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// linkEdges joins two forwarders with a net.Pipe and returns each one's
// face toward the other.
func linkEdges(a, b *Forwarder) (ndn.FaceID, ndn.FaceID) {
	pa, pb := net.Pipe()
	return a.AddFace(transport.New(pa), false), b.AddFace(transport.New(pb), false)
}

// addTags inserts n never-seen tag keys into f's filter, numbered from
// *next.
func addTags(f *Forwarder, next *int, n int) {
	for ; n > 0; n-- {
		f.Tactic().Bloom().Add([]byte("tag-" + strconv.Itoa(*next)))
		*next++
	}
}

// syncTo forces one advert from src and waits until dst has merged it.
func syncTo(t *testing.T, src, dst *Forwarder) {
	t.Helper()
	merged := func() uint64 { return dst.node.Ledger().Control(ndn.CtrlBFSync, node.ControlApplied) }
	n := merged()
	src.SyncBF()
	waitFor(t, dst.cfg.ID+" to merge "+src.cfg.ID+"'s advert", func() bool { return merged() > n })
}

// TestLiveBFSyncHoldsTheUnion: two edges syncing both ways, each adding a
// tag and advertising in turn, end every round with the FPP of exactly
// the distinct tags validated between them — one filter holding them all.
func TestLiveBFSyncHoldsTheUnion(t *testing.T) {
	a, b := bareEdge(t, "edge-a"), bareEdge(t, "edge-b")
	fa, fb := linkEdges(a, b)
	a.AddSyncPeer(fa)
	b.AddSyncPeer(fb)
	abf := a.Tactic().Bloom()
	union, err := bloom.NewWithShape(abf.Bits(), abf.Hashes(), abf.MaxFPP())
	if err != nil {
		t.Fatal(err)
	}
	distinct, all := 0, 0
	addTags(a, &distinct, 10)
	for round := 0; round < 6; round++ {
		if round > 0 {
			addTags(a, &distinct, 1)
		}
		syncTo(t, a, b)
		if round > 0 {
			addTags(b, &distinct, 1)
		}
		syncTo(t, b, a)
		for all < distinct {
			union.Add([]byte("tag-" + strconv.Itoa(all)))
			all++
		}
		if pa, pb := abf.FPP(), b.Tactic().Bloom().FPP(); pa != union.FPP() || pb != union.FPP() {
			t.Fatalf("round %d: FPP A %g, B %g; want both %g, the union of %d tags", round, pa, pb, union.FPP(), distinct)
		}
	}
}

// TestLiveBFSyncLateAndRedialedPeers: a sync peer attached after the
// first advert — and a managed uplink's peer after it redials — holds the
// sender's whole filter after the next SyncBF, though the filter has not
// changed since.
func TestLiveBFSyncLateAndRedialedPeers(t *testing.T) {
	a := bareEdge(t, "edge-a")
	next := 0
	addTags(a, &next, 10)
	holdsA := func(f *Forwarder) func() bool {
		return func() bool {
			return f.Tactic().Bloom().FillRatio() == a.Tactic().Bloom().FillRatio()
		}
	}

	first := bareEdge(t, "edge-b")
	fb, _ := linkEdges(a, first)
	a.AddSyncPeer(fb)
	syncTo(t, a, first)
	if !holdsA(first)() {
		t.Fatal("the first peer does not hold A's filter")
	}

	// A managed uplink registered as a sync peer, dialing whichever
	// forwarder peer holds.
	var peer atomic.Pointer[Forwarder]
	peer.Store(bareEdge(t, "edge-c"))
	up, err := a.ManageUpstream(UplinkConfig{Addr: "pipe", SyncPeer: true, Dial: func(string) (net.Conn, error) {
		mine, theirs := net.Pipe()
		peer.Load().AddFace(transport.New(theirs), true)
		return mine, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close() // before the peers close, so it never redials a closed one
	if !up.WaitUp(liveTimeout) {
		t.Fatal("uplink never attached")
	}
	late := peer.Load()
	a.SyncBF()
	waitFor(t, "the late peer to hold A's filter", holdsA(late))

	// The peer restarts empty: the uplink's face dies and it redials.
	restarted := bareEdge(t, "edge-c")
	peer.Store(restarted)
	late.Close()
	waitFor(t, "the uplink to redial", func() bool { return up.connects.Value() == 2 })
	a.SyncBF()
	waitFor(t, "the redialed peer to hold A's filter", holdsA(restarted))
}

// TestControlTable runs the node core's table of control frames
// (internal/node/testdata/control.json, shared with the core's own test
// and the simulator's) through a live edge's face, and its origin rows
// (control_origin.json) through a live origin's: each frame is counted
// under the row's outcome, leaves the row's end state, and the ledger
// holds the row's control counts.
func TestControlTable(t *testing.T) {
	for file, newNode := range map[string]func(t *testing.T) *Forwarder{
		"control.json":        func(t *testing.T) *Forwarder { return bareEdge(t, "edge-0") },
		"control_origin.json": bareOrigin,
	} {
		raw, err := os.ReadFile("../node/testdata/" + file)
		if err != nil {
			t.Fatal(err)
		}
		var cases []struct {
			Name              string            `json:"name"`
			Before            []ndn.Control     `json:"before"`
			Frame             ndn.Control       `json:"frame"`
			Outcome           string            `json:"outcome"`
			RevocationVersion uint64            `json:"revocation_version"`
			Revoked           int               `json:"revoked"`
			Epoch             uint64            `json:"epoch"`
			BFBitsSet         int               `json:"bf_bits_set"`
			BFSaturated       bool              `json:"bf_saturated"`
			Ledger            map[string]uint64 `json:"ledger"`
		}
		if err := json.Unmarshal(raw, &cases); err != nil || len(cases) == 0 {
			t.Fatalf("%s: %d cases, %v", file, len(cases), err)
		}
		for _, tc := range cases {
			t.Run(tc.Name, func(t *testing.T) {
				f := newNode(t)
				pusherSide, faceSide := net.Pipe()
				f.AddFace(transport.New(faceSide), false)
				pusher := transport.New(pusherSide)
				t.Cleanup(func() { pusher.Close() })
				// send pushes one frame and returns the row it was counted in.
				send := func(m *ndn.Control) string {
					t.Helper()
					counted := f.Ledger().ControlRows()
					if err := pusher.SendControl(m); err != nil {
						t.Fatal(err)
					}
					var row string
					waitFor(t, "the frame to be counted", func() bool {
						for key, n := range f.Ledger().ControlRows() {
							if n != counted[key] {
								row = key
								return true
							}
						}
						return false
					})
					return row
				}
				label := func(m *ndn.Control, outcome string) string {
					if m.Kind < ndn.CtrlRevoke || m.Kind > ndn.CtrlBFSync {
						return node.ControlKindOther + "/" + outcome
					}
					return m.Kind.String() + "/" + outcome
				}
				for i := range tc.Before {
					if got := send(&tc.Before[i]); got != label(&tc.Before[i], node.ControlApplied) {
						t.Fatalf("before[%d] counted as %s", i, got)
					}
				}
				if got, want := send(&tc.Frame), label(&tc.Frame, tc.Outcome); got != want {
					t.Errorf("counted as %s, want %s", got, want)
				}
				r := f.Tactic()
				setBits := 0
				for _, w := range r.Bloom().Words() {
					setBits += bits.OnesCount64(w.Word)
				}
				if r.Revocations().Version() != tc.RevocationVersion || r.Revocations().Len() != tc.Revoked || r.Epoch() != tc.Epoch ||
					r.Bloom().Saturated() != tc.BFSaturated || setBits != tc.BFBitsSet {
					t.Errorf("end state: revocation v%d (%d), epoch %d, %d BF bits set, saturated %v; want %+v",
						r.Revocations().Version(), r.Revocations().Len(), r.Epoch(), setBits, r.Bloom().Saturated(), tc)
				}
				if got := f.Ledger().ControlRows(); !reflect.DeepEqual(got, tc.Ledger) {
					t.Errorf("ledger control rows %v, want %v", got, tc.Ledger)
				}
			})
		}
	}
}

// bareOrigin is the node of an origin that publishes nothing.
func bareOrigin(t *testing.T) *Forwarder {
	t.Helper()
	key, err := pki.GenerateFast(mrand.New(mrand.NewSource(1)), names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	provider, err := core.NewProvider(names.MustParse("/prov0"), key, time.Minute, mrand.New(mrand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProducerWithConfig(provider, Config{Registry: pki.NewRegistry(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p.node
}

// TestOriginRefusalLogGated: a peer streaming control frames at an
// origin has every frame counted invalid, but costs the origin's log at
// most one line a second, not one a frame.
func TestOriginRefusalLogGated(t *testing.T) {
	f := bareOrigin(t)
	var logged atomic.Int64
	f.cfg.Logf = func(string, ...any) { logged.Add(1) } // set before the face's reader starts
	pusherSide, faceSide := net.Pipe()
	f.AddFace(transport.New(faceSide), false)
	pusher := transport.New(pusherSide)
	t.Cleanup(func() { pusher.Close() })

	const frames = 200
	start := time.Now()
	for v := uint64(1); v <= frames; v++ {
		if err := pusher.SendControl(&ndn.Control{Kind: ndn.CtrlRotate, Origin: "/mallory", Version: v}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "every frame to be counted invalid", func() bool {
		return f.node.Ledger().Control(ndn.CtrlRotate, node.ControlInvalid) == frames
	})
	if got, most := logged.Load(), 1+int64(time.Since(start)/time.Second); got < 1 || got > most {
		t.Errorf("%d refusals logged %d lines, want 1..%d", frames, got, most)
	}
}
