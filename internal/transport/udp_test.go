package transport

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
)

// udpPair builds a listener endpoint and one dialed face pointed at it.
func udpPair(t testing.TB, opts UDPOptions) (*UDPEndpoint, *DatagramFace) {
	t.Helper()
	ep, err := ListenUDP("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	cl, err := DialUDP(ep.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return ep, cl
}

// acceptOne pulls the next face off the endpoint with a timeout.
func acceptOne(t testing.TB, ep *UDPEndpoint) Face {
	t.Helper()
	type res struct {
		f   Face
		err error
	}
	ch := make(chan res, 1)
	go func() {
		f, err := ep.Accept()
		ch <- res{f, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r.f
	case <-time.After(5 * time.Second):
		t.Fatal("accept timed out")
		return nil
	}
}

func testData(payload []byte) *ndn.Data {
	name := names.MustParse("/prov0/obj/c0")
	return &ndn.Data{
		Name: name,
		Content: &core.Content{
			Meta:      core.ContentMeta{Name: name, Level: 1, ProviderKey: names.MustParse("/prov0/KEY/1")},
			Payload:   payload,
			Signature: []byte("sig"),
		},
	}
}

func TestUDPRoundTripBothDirections(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts UDPOptions
	}{
		{"batched", UDPOptions{}},
		{"single", UDPOptions{DisableBatch: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ep, cl := udpPair(t, tc.opts)
			want := &ndn.Interest{Name: names.MustParse("/prov0/obj/c0"), Kind: ndn.KindContent, Nonce: 7}
			if err := cl.SendInterest(want); err != nil {
				t.Fatal(err)
			}
			srv := acceptOne(t, ep)
			pkt, err := srv.Receive()
			if err != nil {
				t.Fatal(err)
			}
			if pkt.Interest == nil || !pkt.Interest.Name.Equal(want.Name) || pkt.Interest.Nonce != 7 {
				t.Fatalf("bad interest: %+v", pkt)
			}
			// Reply with a Data big enough to fragment (~3 fragments).
			payload := bytes.Repeat([]byte{0xC7}, 3500)
			if err := srv.SendData(testData(payload)); err != nil {
				t.Fatal(err)
			}
			pkt, err = cl.Receive()
			if err != nil {
				t.Fatal(err)
			}
			if pkt.Data == nil || !bytes.Equal(pkt.Data.Content.Payload, payload) {
				t.Fatal("fragmented data did not round trip")
			}
			if st := cl.Stats(); st.FramesIn != 1 || st.FramesOut != 1 {
				t.Fatalf("client stats: %+v", st)
			}
		})
	}
}

func TestUDPManyFramesBatched(t *testing.T) {
	ep, cl := udpPair(t, UDPOptions{})
	const n = 500
	send := func(i int) {
		cl.SendInterest(&ndn.Interest{ //nolint:errcheck
			Name:  names.MustParse("/prov0/obj/c0"),
			Kind:  ndn.KindContent,
			Nonce: uint64(i),
		})
	}
	// First datagram creates the face; drain concurrently with the flood
	// so the bounded receive queue is an overload valve, not a cliff.
	send(0)
	srv := acceptOne(t, ep)
	srv.SetIdleTimeout(time.Second)
	go func() {
		for i := 1; i < n; i++ {
			send(i)
		}
	}()
	seen := make(map[uint64]bool)
	for len(seen) < n {
		pkt, err := srv.Receive()
		if err != nil {
			// Loopback UDP can still shed under burst; require most through.
			break
		}
		if pkt.Interest != nil {
			seen[pkt.Interest.Nonce] = true
		}
	}
	if len(seen) < n*9/10 {
		t.Fatalf("delivered %d/%d frames", len(seen), n)
	}
}

func TestUDPIdleReapAndRebind(t *testing.T) {
	ep, cl := udpPair(t, UDPOptions{})
	if err := cl.SendInterest(&ndn.Interest{Name: names.MustParse("/p/a"), Kind: ndn.KindContent, Nonce: 1}); err != nil {
		t.Fatal(err)
	}
	srv := acceptOne(t, ep)
	srv.SetIdleTimeout(80 * time.Millisecond)
	if _, err := srv.Receive(); err != nil {
		t.Fatal(err)
	}
	// No more traffic: the face idles out, its owner closes it, and the
	// endpoint forgets the 5-tuple.
	if _, err := srv.Receive(); !errors.Is(err, ErrIdleTimeout) {
		t.Fatalf("expected idle timeout, got %v", err)
	}
	srv.Close()
	if n := ep.Faces(); n != 0 {
		t.Fatalf("faces after reap: %d", n)
	}
	// The same remote 5-tuple speaks again — a NAT rebinding to the same
	// mapping, or simply a quiet client returning: it must surface as a
	// fresh face, not resurrect the closed one.
	if err := cl.SendInterest(&ndn.Interest{Name: names.MustParse("/p/b"), Kind: ndn.KindContent, Nonce: 2}); err != nil {
		t.Fatal(err)
	}
	srv2 := acceptOne(t, ep)
	if srv2 == srv {
		t.Fatal("closed face resurrected")
	}
	pkt, err := srv2.Receive()
	if err != nil || pkt.Interest == nil || pkt.Interest.Nonce != 2 {
		t.Fatalf("fresh face receive: %+v err=%v", pkt, err)
	}
	// The old face stays dead.
	if _, err := srv.Receive(); err == nil {
		t.Fatal("closed face still receiving")
	}
}

func TestUDPFaceKeyCollisionAfterPortRebind(t *testing.T) {
	ep, err := ListenUDP("127.0.0.1:0", UDPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	// Two dials from distinct ephemeral ports model a NAT rebinding a
	// client to a new source port: two distinct 5-tuples, two faces.
	cl1, err := DialUDP(ep.Addr().String(), UDPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl1.Close()
	cl2, err := DialUDP(ep.Addr().String(), UDPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	cl1.SendInterest(&ndn.Interest{Name: names.MustParse("/p/a"), Kind: ndn.KindContent, Nonce: 11}) //nolint:errcheck
	f1 := acceptOne(t, ep)
	cl2.SendInterest(&ndn.Interest{Name: names.MustParse("/p/a"), Kind: ndn.KindContent, Nonce: 22}) //nolint:errcheck
	f2 := acceptOne(t, ep)
	if f1 == f2 {
		t.Fatal("two remotes mapped to one face")
	}
	if ep.Faces() != 2 {
		t.Fatalf("faces=%d, want 2", ep.Faces())
	}
	p1, err := f1.Receive()
	if err != nil || p1.Interest.Nonce != 11 {
		t.Fatalf("face1: %+v err=%v", p1, err)
	}
	p2, err := f2.Receive()
	if err != nil || p2.Interest.Nonce != 22 {
		t.Fatalf("face2: %+v err=%v", p2, err)
	}
}

func TestUDPKeepaliveOverDatagrams(t *testing.T) {
	ep, cl := udpPair(t, UDPOptions{})
	cl.StartKeepalive(30 * time.Millisecond)
	srv := acceptOne(t, ep)
	srv.SetIdleTimeout(200 * time.Millisecond)
	// Only keepalives flow for ~0.5s: Receive must neither surface them
	// nor idle out, because each datagram refreshes liveness.
	done := make(chan error, 1)
	go func() {
		_, err := srv.Receive()
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("receive returned during keepalive-only traffic: %v", err)
	case <-time.After(500 * time.Millisecond):
	}
	if st := srv.Stats(); st.KeepalivesIn < 5 {
		t.Fatalf("keepalives in: %d", st.KeepalivesIn)
	}
	// Stop the keepalives; the idle timeout now fires.
	cl.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrIdleTimeout) {
			t.Fatalf("expected idle timeout, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("idle timeout never fired")
	}
}

func TestUDPReassemblyTimeoutEvictionOnFace(t *testing.T) {
	ep, cl := udpPair(t, UDPOptions{ReassemblyTimeout: 60 * time.Millisecond})
	// Hand-feed fragment datagrams through the raw socket path by using
	// SendFrame on crafted frag TLVs: first half of packet 1, then after
	// the timeout the other half — which must NOT complete it — then a
	// whole packet 2 which must arrive.
	frag := func(id uint64, idx, cnt uint16, payload []byte) []byte {
		body := mkFragBody(id, idx, cnt, payload)
		dg := append([]byte{typeFrag}, appendTLVLen(nil, len(body))...)
		return append(dg, body...)
	}
	full := func(nonce uint64) []byte {
		buf, err := ndn.AppendInterest(nil, &ndn.Interest{Name: names.MustParse("/p/x"), Kind: ndn.KindContent, Nonce: nonce})
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	// The reassembler stamps fragments when the face processes them, not
	// when they hit the socket — so chase the first half with a whole
	// Interest and receive it, forcing the half through the reassembler
	// before the clock starts.
	if err := cl.SendFrame(frag(1, 0, 2, []byte("half"))); err != nil {
		t.Fatal(err)
	}
	cl.SendFrame(full(8)) //nolint:errcheck
	srv := acceptOne(t, ep)
	srv.SetIdleTimeout(2 * time.Second)
	if pkt, err := srv.Receive(); err != nil || pkt.Interest == nil || pkt.Interest.Nonce != 8 {
		t.Fatalf("marker interest: %+v err=%v", pkt, err)
	}
	time.Sleep(120 * time.Millisecond)          // past the reassembly timeout
	cl.SendFrame(frag(1, 1, 2, []byte("late"))) //nolint:errcheck
	cl.SendFrame(full(9))                       //nolint:errcheck
	pkt, err := srv.Receive()
	if err != nil {
		t.Fatal(err)
	}
	// The only packet that may surface is the second whole Interest: the
	// stitched halves of packet 1 would decode to garbage (and error),
	// and an evicted packet must never complete.
	if pkt.Interest == nil || pkt.Interest.Nonce != 9 {
		t.Fatalf("unexpected packet: %+v", pkt)
	}
	df := srv.(*DatagramFace)
	if df.asm.evicted != 1 {
		t.Fatalf("evicted=%d, want 1", df.asm.evicted)
	}
}

func TestUDPCraftedEmptyFragmentDoesNotPanic(t *testing.T) {
	// The remote-crash repro from review: a fragment datagram announcing
	// count=1 with an empty payload used to reassemble into a non-nil
	// zero-length frame, and process() indexing frame[0] panicked the
	// receive goroutine — one ~14-byte datagram killed the process. It
	// must now be counted as a malformed fragment and skipped.
	ep, cl := udpPair(t, UDPOptions{})
	crafted := mkFragBody(3, 0, 1, nil)
	dg := append([]byte{typeFrag}, appendTLVLen(nil, len(crafted))...)
	dg = append(dg, crafted...)
	if err := cl.SendFrame(dg); err != nil {
		t.Fatal(err)
	}
	// Chase it with an honest Interest: Receive must skip the crafted
	// datagram and surface the Interest, proving the loop survived.
	if err := cl.SendInterest(&ndn.Interest{Name: names.MustParse("/p/a"), Kind: ndn.KindContent, Nonce: 77}); err != nil {
		t.Fatal(err)
	}
	srv := acceptOne(t, ep)
	srv.SetIdleTimeout(2 * time.Second)
	pkt, err := srv.Receive()
	if err != nil || pkt.Interest == nil || pkt.Interest.Nonce != 77 {
		t.Fatalf("receive after crafted fragment: %+v err=%v", pkt, err)
	}
	if st := srv.Stats(); st.Errors != 1 {
		t.Fatalf("errors=%d, want 1 (the crafted fragment)", st.Errors)
	}
}

func TestUDPAcceptBacklogShedsInsteadOfBlocking(t *testing.T) {
	// With nobody calling Accept, new remotes past the backlog (64) used
	// to block the endpoint's single read loop, stalling receive for
	// every existing face. They must be shed instead.
	ep, err := ListenUDP("127.0.0.1:0", UDPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	first, err := DialUDP(ep.Addr().String(), UDPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if err := first.SendInterest(&ndn.Interest{Name: names.MustParse("/p/a"), Kind: ndn.KindContent, Nonce: 1}); err != nil {
		t.Fatal(err)
	}
	// Wait until first's face has registered (head of the accept queue)
	// before flooding: if the initial datagram is lost under load, the
	// flood would fill the backlog and shed first itself, and the face
	// accepted below would be a keepalive-only flood face.
	for deadline := time.Now().Add(2 * time.Second); ep.Faces() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("first face never registered")
		}
		first.SendInterest(&ndn.Interest{Name: names.MustParse("/p/a"), Kind: ndn.KindContent, Nonce: 1}) //nolint:errcheck
		time.Sleep(5 * time.Millisecond)
	}
	// Flood from fresh 5-tuples until the backlog overflows and sheds.
	// A shed remote's face unregisters, so resending from the same
	// client re-trips the full queue — retry loops absorb UDP loss.
	var extras []*DatagramFace
	defer func() {
		for _, c := range extras {
			c.Close()
		}
	}()
	for i := 0; i < 70; i++ {
		c, err := DialUDP(ep.Addr().String(), UDPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		extras = append(extras, c)
	}
	deadline := time.Now().Add(5 * time.Second)
	for ep.RxDrops() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("accept backlog never shed (drops=%d faces=%d)", ep.RxDrops(), ep.Faces())
		}
		for _, c := range extras {
			c.SendKeepalive() //nolint:errcheck
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The read loop must still be live: traffic for the first face (the
	// head of the accept queue) still flows.
	if err := first.SendInterest(&ndn.Interest{Name: names.MustParse("/p/a"), Kind: ndn.KindContent, Nonce: 2}); err != nil {
		t.Fatal(err)
	}
	srv := acceptOne(t, ep)
	srv.SetIdleTimeout(2 * time.Second)
	seen := make(map[uint64]bool)
	for !seen[2] {
		pkt, err := srv.Receive()
		if err != nil {
			t.Fatalf("read loop stalled: %v (seen=%v)", err, seen)
		}
		if pkt.Interest != nil {
			seen[pkt.Interest.Nonce] = true
		}
	}
}

func TestUDPOversizeDatagramCountedEndpoint(t *testing.T) {
	// A peer with a larger MTU sends datagrams past our buffer: the
	// kernel truncates them, and they must be counted as oversize drops
	// — not parsed as garbage and misreported as framing errors.
	ep, err := ListenUDP("127.0.0.1:0", UDPOptions{DisableBatch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	cl, err := net.Dial("udp", ep.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Default MTU 1400 → 2048-byte budget (+1 headroom): 3000 bytes gets
	// truncated. Resend until counted (loopback UDP may shed).
	big := bytes.Repeat([]byte{0x5A}, 3000)
	deadline := time.Now().Add(5 * time.Second)
	for ep.dg.oversize.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("oversized datagram never counted")
		}
		if _, err := cl.Write(big); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Oversized datagrams are dropped before demux: no face was created.
	if n := ep.Faces(); n != 0 {
		t.Fatalf("oversized datagram created a face (faces=%d)", n)
	}
}

func TestUDPOversizeDatagramCountedConnMode(t *testing.T) {
	pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	f := NewDatagramConn(pc, UDPOptions{})
	defer f.Close()
	cl, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Write(bytes.Repeat([]byte{0x5A}, 3000)); err != nil {
		t.Fatal(err)
	}
	frame, err := ndn.AppendInterest(nil, &ndn.Interest{Name: names.MustParse("/p/a"), Kind: ndn.KindContent, Nonce: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Write(frame); err != nil {
		t.Fatal(err)
	}
	f.SetIdleTimeout(2 * time.Second)
	pkt, err := f.Receive()
	if err != nil || pkt.Interest == nil || pkt.Interest.Nonce != 9 {
		t.Fatalf("receive after oversized datagram: %+v err=%v", pkt, err)
	}
	if n := f.dg.oversize.Load(); n != 1 {
		t.Fatalf("oversize=%d, want 1", n)
	}
	if st := f.Stats(); st.Errors != 0 {
		t.Fatalf("oversized datagram misreported as %d generic errors", st.Errors)
	}
}

func TestUDPDialClosesWholeEndpoint(t *testing.T) {
	ep, cl := udpPair(t, UDPOptions{})
	_ = ep
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cl.SendKeepalive(); err == nil {
		t.Fatal("send after close succeeded")
	}
}
