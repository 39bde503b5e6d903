package transport

import (
	"errors"
	"net"
	"net/netip"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/ndn"
)

// idleEndpoint is an endpoint nobody drains: no socket, no loops, a send
// queue of the given depth. What a face queues stays queued, so a test
// decides when the queue is full and sees exactly what a send costs.
func idleEndpoint(depth int) (*UDPEndpoint, *DatagramFace) {
	ep := &UDPEndpoint{
		opts:   UDPOptions{}.withDefaults(),
		faces:  make(map[netip.AddrPort]*DatagramFace),
		sendQ:  make(chan outDatagram, depth),
		closed: make(chan struct{}),
	}
	return ep, ep.newFace(netip.MustParseAddrPort("127.0.0.1:6363"))
}

// TestDatagramFaceSendFrameAllocs: with a write time-out set and room in
// the queue, a send costs the pooled copy and nothing else — no timer is
// built for a queue admission that cannot block.
func TestDatagramFaceSendFrameAllocs(t *testing.T) {
	ep, f := idleEndpoint(sendQueueLen)
	f.SetWriteTimeout(10 * time.Second)
	frame, err := ndn.EncodeData(testData(make([]byte, 1024)))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := f.SendFrame(frame); err != nil {
			t.Fatal(err)
		}
		ndn.ReleaseBuffer((<-ep.sendQ).buf)
	})
	if allocs != 0 {
		t.Errorf("SendFrame into a free queue allocates %.1f/op, want 0", allocs)
	}
	if st := f.Stats(); st.FramesOut != 1001 || st.BytesOut != 1001*uint64(len(frame)) {
		t.Errorf("ledger after 1001 sends: %+v", st)
	}
}

// TestDatagramFaceIdleWaitAllocs: a face with an idle timeout that finds
// its queue empty waits on its one re-armed timer, so a wait a datagram
// ends allocates nothing.
func TestDatagramFaceIdleWaitAllocs(t *testing.T) {
	_, f := idleEndpoint(1)
	f.SetIdleTimeout(10 * time.Second)
	dgram := []byte{typeKeepalive, 0}
	kick := make(chan struct{})
	defer close(kick)
	go func() {
		for range kick {
			// Let the receiver reach its wait first; a datagram that beats
			// it there is taken on the fast path, which proves nothing but
			// breaks nothing either.
			time.Sleep(100 * time.Microsecond)
			f.rq <- &dgram
		}
	}()
	allocs := testing.AllocsPerRun(200, func() {
		kick <- struct{}{}
		if buf, err := f.nextQueued(nil); err != nil || buf != &dgram {
			t.Fatalf("nextQueued = %v, %v", buf, err)
		}
	})
	if allocs != 0 {
		t.Errorf("an idle wait ended by a datagram allocates %.1f/op, want 0", allocs)
	}
	if f.idleTimer == nil {
		t.Error("no wait reached the idle timer: every datagram was already queued")
	}
}

// TestUDPSendQueueFullTimesOut: a full queue holds the sender for the
// write time-out — not less — and then fails the send as a fatal
// connection error naming the queue.
func TestUDPSendQueueFullTimesOut(t *testing.T) {
	const timeout = 20 * time.Millisecond
	ep, f := idleEndpoint(1)
	f.SetWriteTimeout(timeout)
	frame := []byte{typeKeepalive, 0}
	if err := f.SendFrame(frame); err != nil {
		t.Fatalf("send into the free slot: %v", err)
	}
	start := time.Now()
	err := f.SendFrame(frame)
	elapsed := time.Since(start)
	var ce *ConnError
	if !errors.As(err, &ce) || ce.Op != "write" || ce.Err.Error() != "transport: udp send queue full" {
		t.Fatalf("send into a full queue: %v, want ConnError{write, udp send queue full}", err)
	}
	if elapsed < timeout {
		t.Errorf("gave up after %v, before the %v write time-out", elapsed, timeout)
	}
	if len(ep.sendQ) != 1 {
		t.Errorf("%d datagrams queued, want the first one only", len(ep.sendQ))
	}
	if st := f.Stats(); st.FramesOut != 1 || st.Errors != 1 {
		t.Errorf("ledger: %+v, want 1 frame out and 1 error", st)
	}

	// A sender blocked without a time-out is released by shutdown.
	f.SetWriteTimeout(0)
	done := make(chan error, 1)
	go func() { done <- f.SendFrame(frame) }()
	select {
	case err := <-done:
		t.Fatalf("send into a full queue returned %v before shutdown", err)
	case <-time.After(timeout):
	}
	close(ep.closed)
	select {
	case err := <-done:
		if !IsFatal(err) || !errors.Is(err, net.ErrClosed) {
			t.Errorf("blocked send after shutdown: %v, want a fatal net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked send not released by shutdown")
	}
}

// TestUDPEnqueueAfterCloseRefused: a closed endpoint refuses every
// datagram, room in the queue or not — nothing is left in a queue nobody
// drains.
func TestUDPEnqueueAfterCloseRefused(t *testing.T) {
	ep, f := idleEndpoint(sendQueueLen)
	close(ep.closed)
	for _, timeout := range []time.Duration{0, time.Second} {
		for i := 0; i < 200; i++ {
			err := ep.enqueue(f.raddr, []byte{typeKeepalive, 0}, timeout)
			if !IsFatal(err) || !errors.Is(err, net.ErrClosed) {
				t.Fatalf("enqueue %d on a closed endpoint (time-out %v): %v, want a fatal net.ErrClosed", i, timeout, err)
			}
		}
	}
	if n := len(ep.sendQ); n != 0 {
		t.Errorf("%d datagrams queued on a closed endpoint", n)
	}
}
