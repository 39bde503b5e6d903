package transport_test

import (
	"bytes"
	"errors"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/obs"
	"github.com/tactic-icn/tactic/internal/transport"
)

// contractCarrier is one way of getting two connected faces. open
// returns the dialing face and a function that yields its peer; the peer
// is asked for only after the dialer has sent, so a listener-side face
// has traffic behind it before anyone holds it.
type contractCarrier struct {
	name string
	open func(t *testing.T) (a transport.Face, accept func() transport.Face)

	// Where the carriers differ, and why.

	// badFrameSurfaces: a stream face reports a frame it cannot decode to
	// its owner (who recycles the face: a stream whose content is wrong
	// is not trusted to stay in frame); a datagram face skips it, the
	// next datagram being a fresh start. Both count it.
	badFrameSurfaces bool
	// idleErr: a stream face's idle timeout is its socket's read
	// deadline; a datagram face times out waiting on its own queue.
	idleErr error
	// closedSendFatal: a closed stream face learns it from the socket, as
	// a connection failure; a closed datagram face knows before touching
	// one and says net.ErrClosed.
	closedSendFatal bool
}

func listenAndDial(spec string) func(t *testing.T) (transport.Face, func() transport.Face) {
	return func(t *testing.T) (transport.Face, func() transport.Face) {
		ln, err := transport.ListenFace(spec, transport.UDPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		scheme, _ := transport.SplitScheme(spec)
		a, err := transport.DialFace(scheme+"://"+ln.Addr().String(), transport.UDPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return a, func() transport.Face {
			b, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
	}
}

var contractCarriers = []contractCarrier{
	{name: "tcp", open: listenAndDial("tcp://127.0.0.1:0"),
		badFrameSurfaces: true, idleErr: os.ErrDeadlineExceeded, closedSendFatal: true},
	{name: "udp-endpoint", open: listenAndDial("udp://127.0.0.1:0"),
		idleErr: transport.ErrIdleTimeout},
	// A wrapped conn pair, each served through a single-peer endpoint.
	{name: "udp-conn", idleErr: transport.ErrIdleTimeout,
		open: func(t *testing.T) (transport.Face, func() transport.Face) {
			ca, cb := udpConnPair(t)
			b := transport.NewDatagramConn(cb, transport.UDPOptions{})
			return transport.NewDatagramConn(ca, transport.UDPOptions{}), func() transport.Face { return b }
		}},
}

// TestFaceContract runs one body of steps against every carrier: what
// the Face interface promises does not depend on the socket beneath it.
func TestFaceContract(t *testing.T) {
	for _, c := range contractCarriers {
		c := c
		t.Run(c.name, func(t *testing.T) { faceContract(t, c) })
	}
}

func faceContract(t *testing.T, c contractCarrier) {
	name := names.MustParse("/prov0/obj/c0")
	interest := func(nonce uint64) *ndn.Interest {
		return &ndn.Interest{Name: name, Kind: ndn.KindContent, Nonce: nonce}
	}
	a, accept := c.open(t)
	defer a.Close()

	// Sent before the peer face is in anyone's hands.
	if err := a.SendInterest(interest(1)); err != nil {
		t.Fatal(err)
	}
	b := accept()
	defer b.Close()
	// A series registered only now is a view of the face's own ledger, so
	// it has the frame that came first.
	reg := obs.NewRegistry()
	reg.CounterFunc("frames_total", func() float64 { return float64(b.Stats().FramesIn) }, obs.L("dir", "in"))
	reg.CounterFunc("bytes_total", func() float64 { return float64(b.Stats().BytesIn) }, obs.L("dir", "in"))
	reg.CounterFunc("errors_total", func() float64 { return float64(b.Stats().Errors) })
	a.SetIdleTimeout(5 * time.Second)
	b.SetIdleTimeout(5 * time.Second)
	wantNonce := func(who transport.Face, nonce uint64) {
		t.Helper()
		pkt, err := who.Receive()
		if err != nil || pkt.Interest == nil || pkt.Interest.Nonce != nonce {
			t.Fatalf("want interest %d, got %+v err=%v", nonce, pkt, err)
		}
	}
	wantNonce(b, 1)
	sent := uint64(1) // frames a has sent

	t.Run("round trip", func(t *testing.T) {
		// Data big enough to fragment on the datagram carriers, and a
		// control frame, each way once.
		d := chaosTestData(bytes.Repeat([]byte{0x5A}, 3000))
		if err := b.SendData(d); err != nil {
			t.Fatal(err)
		}
		pkt, err := a.Receive()
		if err != nil || pkt.Data == nil || !bytes.Equal(pkt.Data.Content.Payload, d.Content.Payload) {
			t.Fatalf("data: %+v err=%v", pkt, err)
		}
		ctl := &ndn.Control{Kind: ndn.CtrlRotate, Version: 7, Origin: "edge-0"}
		if err := a.SendControl(ctl); err != nil {
			t.Fatal(err)
		}
		sent++
		pkt, err = b.Receive()
		if err != nil || pkt.Control == nil || pkt.Control.Version != 7 {
			t.Fatalf("control: %+v err=%v", pkt, err)
		}
		if st := b.Stats(); st.FramesOut != 1 {
			t.Fatalf("a fragmented Data is one frame out, got %d", st.FramesOut)
		}
		if st := a.Stats(); st.FramesIn != 1 {
			t.Fatalf("a fragmented Data is one frame in, got %d", st.FramesIn)
		}
	})

	t.Run("keepalives are frames Receive never shows", func(t *testing.T) {
		for i := 0; i < 2; i++ {
			if err := a.SendKeepalive(); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.SendInterest(interest(2)); err != nil {
			t.Fatal(err)
		}
		sent += 3
		wantNonce(b, 2)
		as, bs := a.Stats(), b.Stats()
		if as.KeepalivesOut != 2 || bs.KeepalivesIn != 2 {
			t.Fatalf("keepalives out=%d in=%d, want 2/2", as.KeepalivesOut, bs.KeepalivesIn)
		}
		if as.FramesOut != sent || bs.FramesIn != sent {
			t.Fatalf("frames out=%d in=%d, want %d each: a keepalive counts as a frame both ways", as.FramesOut, bs.FramesIn, sent)
		}
	})

	t.Run("concurrent senders", func(t *testing.T) {
		const senders, each = 4, 50
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					if err := a.SendInterest(interest(uint64(1000 + s*each + i))); err != nil {
						t.Errorf("sender %d: %v", s, err)
						return
					}
				}
			}(s)
		}
		seen := make(map[uint64]bool)
		for len(seen) < senders*each {
			pkt, err := b.Receive()
			if err != nil || pkt.Interest == nil {
				t.Fatalf("after %d: %+v err=%v", len(seen), pkt, err)
			}
			seen[pkt.Interest.Nonce] = true
		}
		wg.Wait()
		sent += senders * each
	})

	t.Run("a frame that does not decode", func(t *testing.T) {
		if err := a.SendFrame([]byte{0x99, 0}); err != nil {
			t.Fatal(err)
		}
		if err := a.SendInterest(interest(3)); err != nil {
			t.Fatal(err)
		}
		sent += 2
		if c.badFrameSurfaces {
			if _, err := b.Receive(); !errors.Is(err, transport.ErrBadPacketType) {
				t.Fatalf("bad frame: err=%v, want ErrBadPacketType", err)
			}
		}
		wantNonce(b, 3)
		if n := b.Stats().Errors; n != 1 {
			t.Fatalf("errors = %d, want 1", n)
		}
	})

	t.Run("stats are the series", func(t *testing.T) {
		as, bs := a.Stats(), b.Stats()
		if bs.FramesIn != sent || bs.FramesIn != as.FramesOut || bs.BytesIn != as.BytesOut {
			t.Fatalf("receiver %+v, sender %+v, %d frames sent", bs, as, sent)
		}
		snap := reg.Snapshot()
		for series, want := range map[string]uint64{
			`frames_total{dir="in"}`: bs.FramesIn,
			`bytes_total{dir="in"}`:  bs.BytesIn,
			`errors_total`:           bs.Errors,
		} {
			if got := snap[series]; got != float64(want) {
				t.Errorf("%s = %v, Stats() says %d", series, got, want)
			}
		}
	})

	t.Run("idle timeout", func(t *testing.T) {
		b.SetIdleTimeout(50 * time.Millisecond)
		start := time.Now()
		if _, err := b.Receive(); !errors.Is(err, c.idleErr) {
			t.Fatalf("idle receive: err=%v, want %v", err, c.idleErr)
		}
		if d := time.Since(start); d < 40*time.Millisecond || d > 2*time.Second {
			t.Fatalf("idle timeout took %v", d)
		}
	})

	t.Run("send after close", func(t *testing.T) {
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		err := a.SendInterest(interest(4))
		if err == nil {
			t.Fatal("send on a closed face succeeded")
		}
		if transport.IsFatal(err) != c.closedSendFatal || (!c.closedSendFatal && !errors.Is(err, net.ErrClosed)) {
			t.Fatalf("send on a closed face: %v (fatal=%v)", err, transport.IsFatal(err))
		}
		if n := a.Stats().FramesOut; n != sent {
			t.Fatalf("a failed send was counted: frames out %d, want %d", n, sent)
		}
	})
}
