//go:build linux && (amd64 || arm64)

package transport

import (
	"errors"
	"net"
	"net/netip"
	"syscall"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
)

// batchPeer is a listener endpoint's face for a plain socket that never
// reads (loopback drops what outgrows its receive buffer, silently), and
// a reader scratch armed as a datagram face's ReceiveInto arms it.
func batchPeer(t *testing.T) (*UDPEndpoint, *DatagramFace, *net.UDPConn, *Scratch) {
	t.Helper()
	ep, err := ListenUDP("127.0.0.1:0", UDPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	if ep.bio == nil {
		t.Skip("no batch I/O on this socket")
	}
	peer, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	f := ep.newFace(canonAddr(peer.LocalAddr().(*net.UDPAddr).AddrPort()))
	s := new(Scratch)
	s.out.armed = true
	return ep, f, peer, s
}

// interestFrame encodes an Interest for /prov0/obj/c<k>.
func interestFrame(t *testing.T, k int) []byte {
	t.Helper()
	frame, err := ndn.EncodeInterest(&ndn.Interest{
		Name: names.MustNew("prov0", "obj", "c"+string(rune('a'+k%26))), Kind: ndn.KindContent, Nonce: uint64(k + 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestDatagramBatchAllocs: a reader's send that joins its batch and the
// flush that writes the batch allocate nothing — the datagram is copied
// into a pooled buffer the flush releases.
func TestDatagramBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	ep, f, peer, s := batchPeer(t)
	frame, err := ndn.EncodeData(testData(make([]byte, 1024)))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for k := 0; k < 4; k++ {
			if err := s.SendFrame(f, frame); err != nil {
				t.Fatal(err)
			}
		}
		s.Flush()
	})
	if allocs != 0 {
		t.Errorf("four batched sends and a flush allocate %.1f/op, want 0", allocs)
	}
	if w := ep.dg.writes.Load(); w != 1001 {
		t.Errorf("1001 flushes made %d socket writes, want one each", w)
	}
	if st := f.Stats(); st.FramesOut != 4004 || st.BytesOut != 4004*uint64(len(frame)) {
		t.Errorf("ledger after 4004 sends: %+v", st)
	}
	buf := make([]byte, 2048)
	peer.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if n, err := peer.Read(buf); err != nil || string(buf[:n]) != string(frame) {
		t.Fatalf("peer read %d bytes, %v; want the frame", n, err)
	}
}

// TestDatagramBatchOneWritePerSocket: a batch whose datagrams go to two
// sockets is written with one socket write on each, every socket's
// datagrams in the order they were sent.
func TestDatagramBatchOneWritePerSocket(t *testing.T) {
	ep, f, peer, s := batchPeer(t)
	up, err := DialUDP(peer.LocalAddr().String(), UDPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	for k := 0; k < 6; k++ {
		to := f
		if k%2 == 1 {
			to = up
		}
		if err := s.SendFrame(to, interestFrame(t, k)); err != nil {
			t.Fatal(err)
		}
	}
	if ep.dg.writes.Load() != 0 || up.ep.dg.writes.Load() != 0 {
		t.Fatal("a batched send was written before the flush")
	}
	s.Flush()
	if a, b := ep.dg.writes.Load(), up.ep.dg.writes.Load(); a != 1 || b != 1 {
		t.Fatalf("socket writes %d and %d, want 1 each", a, b)
	}
	if s.out.n != 0 {
		t.Fatalf("%d datagrams left in the batch", s.out.n)
	}
	buf := make([]byte, 2048)
	peer.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	from := map[netip.AddrPort][]int{}
	for k := 0; k < 6; k++ {
		n, addr, err := peer.ReadFromUDPAddrPort(buf)
		if err != nil {
			t.Fatal(err)
		}
		i, err := ndn.DecodeInterest(buf[:n])
		if err != nil {
			t.Fatal(err)
		}
		from[canonAddr(addr)] = append(from[canonAddr(addr)], int(i.Nonce-1))
	}
	for _, got := range from {
		if len(got) != 3 || got[1] != got[0]+2 || got[2] != got[1]+2 {
			t.Errorf("a socket's datagrams arrived as %v, want every other one in order", got)
		}
	}
}

// TestDatagramReaderFlushesBeforeItWaits: a reader holds the replies it
// sends while its queue has input and writes them, all at once, when the
// queue runs dry — before it waits for more. A full batch is written at
// once.
func TestDatagramReaderFlushesBeforeItWaits(t *testing.T) {
	ep, f, _, s := batchPeer(t)
	const burst = 10
	for k := 0; k < burst; k++ {
		buf := ndn.AcquireBuffer()
		*buf = append((*buf)[:0], interestFrame(t, k)...)
		f.rq <- buf
	}
	for k := 0; k < burst; k++ {
		pkt, err := f.ReceiveInto(s)
		if err != nil || pkt.Interest == nil {
			t.Fatalf("receive %d: %+v, %v", k, pkt, err)
		}
		if err := s.SendFrame(f, interestFrame(t, k)); err != nil {
			t.Fatal(err)
		}
	}
	if w := ep.dg.writes.Load(); w != 0 {
		t.Fatalf("%d socket writes while the reader still had input", w)
	}
	f.SetIdleTimeout(50 * time.Millisecond)
	if _, err := f.ReceiveInto(s); !errors.Is(err, ErrIdleTimeout) {
		t.Fatalf("receive on a dry queue: %v, want the idle time-out", err)
	}
	if w, n := ep.dg.writes.Load(), s.out.n; w != 1 || n != 0 {
		t.Fatalf("after the queue ran dry: %d socket writes, %d held, want 1 and 0", w, n)
	}

	for k := 0; k < batchMax; k++ {
		if err := s.SendFrame(f, interestFrame(t, k)); err != nil {
			t.Fatal(err)
		}
	}
	if w, n := ep.dg.writes.Load(), s.out.n; w != 2 || n != 0 {
		t.Fatalf("after %d sends: %d socket writes, %d held, want 2 and 0", batchMax, w, n)
	}
}

// TestDatagramBatchReleasedOnClose: a reader's batch releases every pooled
// buffer it holds when its reader exits or its endpoint closes under it,
// and refuses later sends with a fatal net.ErrClosed.
func TestDatagramBatchReleasedOnClose(t *testing.T) {
	held := func(s *Scratch) []*[]byte {
		var bufs []*[]byte
		for _, d := range s.out.dgs[:s.out.n] {
			bufs = append(bufs, d.buf)
		}
		return bufs
	}
	check := func(t *testing.T, s *Scratch, f *DatagramFace, bufs []*[]byte) {
		t.Helper()
		if s.out.n != 0 {
			t.Errorf("%d datagrams left in the batch", s.out.n)
		}
		for k, b := range bufs {
			if len(*b) != 0 {
				t.Errorf("buffer %d not released", k)
			}
		}
		err := s.SendFrame(f, interestFrame(t, 0))
		if !IsFatal(err) || !errors.Is(err, net.ErrClosed) {
			t.Errorf("send after close: %v, want a fatal net.ErrClosed", err)
		}
		if s.out.n != 0 {
			t.Error("a refused send was held")
		}
	}

	t.Run("endpoint closes", func(t *testing.T) {
		ep, f, _, s := batchPeer(t)
		for k := 0; k < 3; k++ {
			if err := s.SendFrame(f, interestFrame(t, k)); err != nil {
				t.Fatal(err)
			}
		}
		bufs := held(s)
		ep.Close()
		s.Flush()
		check(t, s, f, bufs)
	})

	t.Run("reader exits", func(t *testing.T) {
		_, f, _, s := batchPeer(t)
		buf := ndn.AcquireBuffer()
		*buf = append((*buf)[:0], interestFrame(t, 0)...)
		f.rq <- buf
		if _, err := f.ReceiveInto(s); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3; k++ {
			if err := s.SendFrame(f, interestFrame(t, k)); err != nil {
				t.Fatal(err)
			}
		}
		bufs := held(s)
		f.Close()
		if _, err := f.ReceiveInto(s); !errors.Is(err, net.ErrClosed) {
			t.Fatalf("receive on a closed face: %v", err)
		}
		check(t, s, f, bufs)
	})
}

// TestWriteBatchHandsBackOnEAGAIN: a reader's write never waits on its
// socket. What the socket has no room for comes back from writeBatch as
// its unsent rest; writeOwn hands that to the write loop's queue and drops
// what the queue has no room for, counted as the face's error. A caller
// that may wait (the write loop) gets everything out once there is room.
func TestWriteBatchHandsBackOnEAGAIN(t *testing.T) {
	pc, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	ep := newEndpoint(pc, pc, UDPOptions{}) // no loops: nothing drains sendQ
	if ep.bio == nil {
		t.Skip("no batch I/O on this socket")
	}
	f := ep.newFace(canonAddr(pc.LocalAddr().(*net.UDPAddr).AddrPort()))
	// A socket that takes two messages and is then full: the kernel's
	// EAGAIN, without filling a real send buffer.
	var offered []int
	room := 2
	ep.bio.send = func(uintptr) bool {
		b := ep.bio
		if room == 0 {
			b.serr = syscall.EAGAIN
			return true
		}
		b.sn = min(room, b.sto-b.sfrom)
		for i := b.sfrom; i < b.sfrom+b.sn; i++ {
			offered = append(offered, int(b.siovs[i][0].Len))
		}
		room -= b.sn
		return true
	}
	batch := func() ([]outDatagram, []*DatagramFace) {
		var dgs []outDatagram
		var faces []*DatagramFace
		for k := 1; k <= 5; k++ { // sizes differ: no GSO run packs two
			buf := ndn.AcquireBuffer()
			*buf = append((*buf)[:0], make([]byte, k)...)
			dgs = append(dgs, outDatagram{addr: f.raddr, buf: buf})
			faces = append(faces, f)
		}
		return dgs, faces
	}

	dgs, _ := batch()
	unsent := ep.bio.writeBatch(dgs, false)
	if len(unsent) != 3 || &unsent[0] != &dgs[2] {
		t.Fatalf("writeBatch handed back %d datagrams, want the last 3", len(unsent))
	}

	room, offered = 2, nil
	dgs, faces := batch()
	ep.sendQ = make(chan outDatagram, 2)
	ep.writeOwn(dgs, faces)
	if len(ep.sendQ) != 2 {
		t.Fatalf("%d datagrams handed to the write queue, want 2", len(ep.sendQ))
	}
	for k := 2; k <= 3; k++ {
		if d := <-ep.sendQ; d.buf != dgs[k].buf {
			t.Errorf("queued datagram is not the %d-th sent", k+1)
		}
	}
	if st := f.Stats(); st.Errors != 1 {
		t.Errorf("face errors %d, want 1 for the datagram the full queue dropped", st.Errors)
	}
	for _, k := range []int{0, 1, 4} {
		if len(*dgs[k].buf) != 0 {
			t.Errorf("datagram %d: buffer not released", k+1)
		}
	}

	room, offered = 2, nil
	dgs, _ = batch()
	go func() {
		time.Sleep(10 * time.Millisecond)
		ep.bio.smu.Lock() // the waiting writer released the send lock
		room = 5
		ep.bio.smu.Unlock()
	}()
	if unsent := ep.bio.writeBatch(dgs, true); len(unsent) != 0 {
		t.Fatalf("a writer that may wait handed back %d datagrams", len(unsent))
	}
	if len(offered) != 5 || offered[0] != 1 || offered[4] != 5 {
		t.Fatalf("the socket took datagrams of sizes %v, want 1..5 once each", offered)
	}
}
