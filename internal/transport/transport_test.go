package transport

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/pki"
)

// pipePair builds two framed connections over net.Pipe.
func pipePair() (*Conn, *Conn) {
	a, b := net.Pipe()
	return New(a), New(b)
}

func testTag(t *testing.T) *core.Tag {
	t.Helper()
	signer, err := pki.GenerateFast(rand.New(rand.NewSource(1)), names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	tag, err := core.IssueTag(signer, names.MustParse("/u/alice/KEY/1"), 3, 7, time.Unix(1<<31, 0))
	if err != nil {
		t.Fatal(err)
	}
	return tag
}

func TestInterestRoundTripOverPipe(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()

	tag := testTag(t)
	want := &ndn.Interest{
		Name:       names.MustParse("/prov0/obj/c0"),
		Kind:       ndn.KindContent,
		Nonce:      42,
		Tag:        tag,
		Flag:       0.125,
		AccessPath: 9,
	}
	errc := make(chan error, 1)
	go func() { errc <- a.SendInterest(want) }()
	pkt, err := b.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if pkt.Interest == nil || pkt.Data != nil {
		t.Fatal("wrong packet kind")
	}
	got := pkt.Interest
	if !got.Name.Equal(want.Name) || got.Nonce != want.Nonce || got.Flag != want.Flag ||
		got.AccessPath != want.AccessPath || got.Tag == nil {
		t.Errorf("interest mismatch: %+v", got)
	}
}

func TestDataRoundTripOverPipe(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()

	want := &ndn.Data{
		Name: names.MustParse("/prov0/obj/c0"),
		Content: &core.Content{
			Meta:      core.ContentMeta{Name: names.MustParse("/prov0/obj/c0"), Level: 2, ProviderKey: names.MustParse("/prov0/KEY/1")},
			Payload:   []byte("the payload"),
			Signature: []byte{1, 2, 3},
		},
		Nack: true,
	}
	errc := make(chan error, 1)
	go func() { errc <- a.SendData(want) }()
	pkt, err := b.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if pkt.Data == nil {
		t.Fatal("wrong packet kind")
	}
	if !pkt.Data.Nack || string(pkt.Data.Content.Payload) != "the payload" {
		t.Errorf("data mismatch: %+v", pkt.Data)
	}
}

func TestManyPacketsOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	const n = 200
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		c := New(conn)
		defer c.Close()
		for i := 0; i < n; i++ {
			pkt, err := c.Receive()
			if err != nil {
				done <- err
				return
			}
			if pkt.Interest == nil || pkt.Interest.Nonce != uint64(i) {
				done <- errors.New("out-of-order or corrupt packet")
				return
			}
		}
		done <- nil
	}()

	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := New(raw)
	defer c.Close()
	for i := 0; i < n; i++ {
		if err := c.SendInterest(&ndn.Interest{
			Name:  names.MustParse("/prov0/obj").MustAppend("c" + string(rune('0'+i%10))),
			Kind:  ndn.KindContent,
			Nonce: uint64(i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestCleanCloseYieldsEOF(t *testing.T) {
	a, b := pipePair()
	go a.Close()
	if _, err := b.Receive(); !errors.Is(err, io.EOF) {
		t.Errorf("close err = %v, want EOF", err)
	}
	b.Close()
}

func TestTruncatedFrame(t *testing.T) {
	a, b := net.Pipe()
	conn := New(b)
	go func() {
		// Announce a 100-byte Interest but deliver 3 bytes.
		a.Write([]byte{0x05, 100, 1, 2, 3})
		a.Close()
	}()
	if _, err := conn.Receive(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncation err = %v, want ErrUnexpectedEOF", err)
	}
	conn.Close()
}

func TestOversizePacketRejected(t *testing.T) {
	a, b := net.Pipe()
	conn := New(b)
	go func() {
		// 254-prefixed 32-bit length far above the cap.
		a.Write([]byte{0x06, 254, 0xFF, 0xFF, 0xFF, 0xFF})
		a.Close()
	}()
	if _, err := conn.Receive(); !errors.Is(err, ErrPacketTooLarge) {
		t.Errorf("oversize err = %v", err)
	}
	conn.Close()
}

func TestUnknownPacketType(t *testing.T) {
	a, b := net.Pipe()
	conn := New(b)
	go func() {
		a.Write([]byte{0x42, 1, 0})
		a.Close()
	}()
	if _, err := conn.Receive(); !errors.Is(err, ErrBadPacketType) {
		t.Errorf("unknown type err = %v", err)
	}
	conn.Close()
}

func TestConcurrentWriters(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()

	const writers, per = 4, 25
	errc := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func() {
			for i := 0; i < per; i++ {
				if err := a.SendInterest(&ndn.Interest{
					Name:  names.MustParse("/x/y"),
					Kind:  ndn.KindContent,
					Nonce: uint64(i),
				}); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}()
	}
	got := 0
	for got < writers*per {
		pkt, err := b.Receive()
		if err != nil {
			t.Fatal(err)
		}
		if pkt.Interest == nil {
			t.Fatal("frame interleaving corrupted a packet")
		}
		got++
	}
	for w := 0; w < writers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

func TestPropertyReceiveNeverPanicsOnGarbage(t *testing.T) {
	f := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		a, b := net.Pipe()
		conn := New(b)
		go func() {
			a.Write(data)
			a.Close()
		}()
		for {
			if _, err := conn.Receive(); err != nil {
				break
			}
		}
		conn.Close()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWriteTimeoutWedgedPeer(t *testing.T) {
	a, b := net.Pipe() // unbuffered: a write blocks until b reads
	conn := New(a)
	defer conn.Close()
	defer b.Close()
	conn.SetWriteTimeout(50 * time.Millisecond)

	start := time.Now()
	err := conn.SendInterest(&ndn.Interest{Name: names.MustParse("/x/y"), Kind: ndn.KindContent, Nonce: 1})
	if err == nil {
		t.Fatal("write to a wedged peer succeeded")
	}
	if !IsFatal(err) {
		t.Errorf("wedged-peer error not fatal: %v", err)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("err = %v, want a net timeout", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Errorf("write blocked %s despite 50ms deadline", waited)
	}
	if conn.Stats().Errors == 0 {
		t.Error("write timeout not counted as a connection error")
	}
}

func TestIdleTimeoutDetectsDeadPeer(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()
	b.SetIdleTimeout(80 * time.Millisecond)

	_, err := b.Receive() // a never sends
	if err == nil {
		t.Fatal("idle receive returned a packet")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("err = %v, want a net timeout", err)
	}
}

func TestKeepaliveRefreshesIdlePeerAndIsInvisible(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()
	b.SetIdleTimeout(150 * time.Millisecond)
	a.StartKeepalive(30 * time.Millisecond)

	type res struct {
		pkt Packet
		err error
	}
	got := make(chan res, 1)
	go func() {
		pkt, err := b.Receive()
		got <- res{pkt, err}
	}()
	// Quiet for 3x the idle timeout: only keepalives flow, and they must
	// hold the link open without surfacing as packets.
	time.Sleep(450 * time.Millisecond)
	select {
	case r := <-got:
		t.Fatalf("Receive returned during keepalive-only quiet period: %+v %v", r.pkt, r.err)
	default:
	}
	if err := a.SendInterest(&ndn.Interest{Name: names.MustParse("/x/y"), Kind: ndn.KindContent, Nonce: 7}); err != nil {
		t.Fatal(err)
	}
	r := <-got
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.pkt.Interest == nil || r.pkt.Interest.Nonce != 7 {
		t.Fatalf("got %+v, want the interest", r.pkt)
	}
	if b.Stats().KeepalivesIn < 3 {
		t.Errorf("keepalives in = %d, want >= 3", b.Stats().KeepalivesIn)
	}
	if a.Stats().KeepalivesOut < 3 {
		t.Errorf("keepalives out = %d, want >= 3", a.Stats().KeepalivesOut)
	}
}

func TestIsFatalClassification(t *testing.T) {
	if IsFatal(nil) {
		t.Error("nil is fatal")
	}
	if IsFatal(ErrPacketTooLarge) {
		t.Error("oversize packet rejection is fatal")
	}
	if !IsFatal(&ConnError{Op: "write", Err: io.ErrClosedPipe}) {
		t.Error("ConnError not fatal")
	}
	wrapped := fmt.Errorf("send data: %w", &ConnError{Op: "flush", Err: io.ErrClosedPipe})
	if !IsFatal(wrapped) {
		t.Error("wrapped ConnError not fatal")
	}
}

func TestSendAfterPeerCloseIsFatal(t *testing.T) {
	a, b := pipePair()
	b.Close()
	// The pipe may need one write to observe the close.
	var err error
	for i := 0; i < 5 && err == nil; i++ {
		err = a.SendInterest(&ndn.Interest{Name: names.MustParse("/x/y"), Kind: ndn.KindContent, Nonce: 1})
	}
	if err == nil {
		t.Fatal("send to closed peer kept succeeding")
	}
	if !IsFatal(err) {
		t.Errorf("closed-peer error not fatal: %v", err)
	}
	a.Close()
}

// TestIdleDeadlineRefreshesOnReadProgress is the slow-frame regression:
// a multi-KB frame trickling in slower than the idle timeout (but with
// steady byte progress) must not false-trip it — the deadline refreshes
// on every low-level read, not once per frame.
func TestIdleDeadlineRefreshesOnReadProgress(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	recv := New(b)
	defer recv.Close()
	recv.SetIdleTimeout(150 * time.Millisecond)

	// One ~2 KB Data frame, drip-fed in 256-byte chunks every 60 ms:
	// total transfer ~500 ms, each inter-chunk gap well under the idle
	// timeout.
	frame, err := ndn.AppendData(nil, &ndn.Data{
		Name: names.MustParse("/prov0/obj/slow"),
		Content: &core.Content{
			Meta:      core.ContentMeta{Name: names.MustParse("/prov0/obj/slow"), Level: 1, ProviderKey: names.MustParse("/prov0/KEY/1")},
			Payload:   make([]byte, 2048),
			Signature: []byte("sig"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for off := 0; off < len(frame); off += 256 {
			end := off + 256
			if end > len(frame) {
				end = len(frame)
			}
			if _, err := a.Write(frame[off:end]); err != nil {
				return
			}
			time.Sleep(60 * time.Millisecond)
		}
	}()
	pkt, err := recv.Receive()
	if err != nil {
		t.Fatalf("slow frame tripped the idle timeout: %v", err)
	}
	if pkt.Data == nil || len(pkt.Data.Content.Payload) != 2048 {
		t.Fatal("frame corrupted")
	}
	// The timeout still works when the link actually goes quiet.
	if _, err := recv.Receive(); err == nil {
		t.Fatal("idle timeout never fired on a silent link")
	}
}

// Frames sent while the reader has input pending share one flush: none
// reaches the socket until the reader runs dry, and then all of them go
// out in one write.
func TestCoalescedWritesShareAFlush(t *testing.T) {
	c, cc, raw := flushPair(t)
	peer := New(raw)
	holdBackstop(c)
	rawWrite(raw, interestFrames(t, 0, 2))
	wantNonce(t, c, 0) // nonce 1 is still buffered: input pending
	// Nobody reads the synchronous pipe yet, so the sends return only if
	// they deferred.
	for n := uint64(100); n < 103; n++ {
		if err := c.SendInterest(nonceInterest(n)); err != nil {
			t.Fatal(err)
		}
	}
	if w := cc.writes.Load(); w != 0 {
		t.Fatalf("sends with input pending wrote to the socket (%d writes)", w)
	}
	wantNonce(t, c, 1)
	go c.Receive() //nolint:errcheck // runs dry: fires the flush, then blocks until the pipe closes
	for n := uint64(100); n < 103; n++ {
		wantNonce(t, peer, n)
	}
	if w := cc.writes.Load(); w != 1 {
		t.Errorf("socket writes = %d, want the 3 frames in 1", w)
	}
	if st := c.Stats(); st.FramesOut != 3 || st.Flushes != 1 {
		t.Errorf("frames out = %d, flushes = %d, want 3 and 1", st.FramesOut, st.Flushes)
	}
}

// A deferred batch goes out with the frame that would take it past
// deferFlushBytes, without waiting for the reader or the backstop.
func TestCoalesceFlushesOnThreshold(t *testing.T) {
	c, _, raw := flushPair(t)
	peer := New(raw)
	holdBackstop(c) // only the byte threshold can flush
	rawWrite(raw, interestFrames(t, 0, 2))
	wantNonce(t, c, 0) // input pending, and the reader never runs dry
	if err := c.SendInterest(nonceInterest(100)); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 40<<10) // one frame past deferFlushBytes
	done := make(chan error, 1)
	go func() {
		done <- c.SendData(&ndn.Data{
			Name: names.MustParse("/prov0/obj/big"),
			Content: &core.Content{
				Meta:      core.ContentMeta{Name: names.MustParse("/prov0/obj/big"), Level: 1, ProviderKey: names.MustParse("/prov0/KEY/1")},
				Payload:   payload,
				Signature: []byte("sig"),
			},
		})
	}()
	wantNonce(t, peer, 100)
	pkt, err := peer.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if pkt.Data == nil || len(pkt.Data.Content.Payload) != len(payload) {
		t.Fatal("threshold flush lost the frame")
	}
}

// A deferred flush that fails — the backstop's, toward a peer that is
// gone — is sticky: the next send reports it as fatal.
func TestCoalesceAsyncFlushErrorIsSticky(t *testing.T) {
	c, _, raw := flushPair(t)
	rawWrite(raw, interestFrames(t, 0, 2))
	wantNonce(t, c, 0) // input pending: the next send defers
	raw.Close()        // the peer is gone; the backstop's flush will fail

	if err := c.SendInterest(nonceInterest(1)); err != nil {
		t.Fatalf("deferred send should succeed: %v", err)
	}
	// After the backstop the flush has failed; the next send must surface
	// it as fatal so the face is recycled.
	deadline := time.Now().Add(2 * time.Second)
	for {
		err := c.SendInterest(nonceInterest(2))
		if err != nil {
			if !IsFatal(err) {
				t.Fatalf("sticky flush error not fatal: %v", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flush error never surfaced")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// countingConn counts the Write calls reaching the socket and, when
// wrote is set, reports each call's error on it.
type countingConn struct {
	net.Conn
	writes atomic.Int64
	wrote  chan error
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	n, err := c.Conn.Write(b)
	if c.wrote != nil {
		c.wrote <- err
	}
	return n, err
}

// flushPair builds a Conn under test over a net.Pipe whose socket writes
// are counted, and the raw peer end. A net.Pipe Read returns what one
// Write supplied, so one raw Write of several frames reaches the Conn's
// reader as one segment, deterministically.
func flushPair(t *testing.T) (*Conn, *countingConn, net.Conn) {
	t.Helper()
	a, b := net.Pipe()
	cc := &countingConn{Conn: b}
	c := New(cc)
	t.Cleanup(func() { c.Close(); a.Close() })
	return c, cc, a
}

// holdBackstop leaves c as if its backstop were armed an hour ahead, so
// only the reader running dry (or the byte threshold) gets deferred
// frames flushed: what a test needs to tell the reader's promise from
// the backstop.
func holdBackstop(c *Conn) {
	c.mu.Lock()
	c.flushTimer = time.AfterFunc(time.Hour, c.timerFlush)
	c.deferred.Store(true)
	c.mu.Unlock()
}

func nonceInterest(n uint64) *ndn.Interest {
	return &ndn.Interest{Name: names.MustParse("/p/x"), Kind: ndn.KindContent, Nonce: n}
}

// interestFrames encodes Interests with nonces from..to-1 back to back.
func interestFrames(t *testing.T, from, to uint64) []byte {
	t.Helper()
	var out []byte
	for n := from; n < to; n++ {
		var err error
		if out, err = ndn.AppendInterest(out, nonceInterest(n)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// rawWrite writes b to the raw end without blocking the test on the
// synchronous pipe.
func rawWrite(raw net.Conn, b []byte) {
	go raw.Write(b) //nolint:errcheck // a lost write fails the test's receives
}

func wantNonce(t *testing.T, c *Conn, n uint64) {
	t.Helper()
	pkt, err := c.Receive()
	if err != nil {
		t.Fatalf("receive nonce %d: %v", n, err)
	}
	if pkt.Interest == nil || pkt.Interest.Nonce != n {
		t.Fatalf("got %+v, want interest nonce %d", pkt, n)
	}
}

// With one frame in flight the reader never has input pending: every
// frame is flushed by the send that queued it, and the timer is never
// created.
func TestFlushPingPongOneWritePerFrame(t *testing.T) {
	c, cc, raw := flushPair(t)
	peer := New(raw)
	const rounds = 50
	done := make(chan error, 1)
	go func() { // echo server on the Conn under test
		for i := 0; i < rounds; i++ {
			pkt, err := c.Receive()
			if err == nil {
				err = c.SendInterest(pkt.Interest)
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := uint64(0); i < rounds; i++ {
		if err := peer.SendInterest(nonceInterest(i)); err != nil {
			t.Fatal(err)
		}
		wantNonce(t, peer, i)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if w := cc.writes.Load(); w != rounds {
		t.Errorf("socket writes = %d, want one per frame (%d)", w, rounds)
	}
	if st := c.Stats(); st.Flushes != rounds || st.FramesOut != rounds {
		t.Errorf("flushes = %d, frames out = %d, want %d each", st.Flushes, st.FramesOut, rounds)
	}
	for _, conn := range []*Conn{c, peer} {
		conn.mu.Lock()
		if conn.flushTimer != nil {
			t.Error("light-load ping-pong touched the flush timer")
		}
		conn.mu.Unlock()
	}
}

// Frames that arrive in one segment are echoed in one write: the reader
// defers while it has input pending and the reply to the last frame of
// the segment carries the batch.
func TestFlushBatchFollowsBacklog(t *testing.T) {
	c, cc, raw := flushPair(t)
	peer := New(raw)
	const n = 64
	rawWrite(raw, interestFrames(t, 0, n))
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			pkt, err := c.Receive()
			if err == nil {
				err = c.SendInterest(pkt.Interest)
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := uint64(0); i < n; i++ {
		wantNonce(t, peer, i)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if w := cc.writes.Load(); w > n/8 {
		t.Errorf("socket writes = %d for %d echoed frames, want far fewer", w, n)
	}
	if st := c.Stats(); st.FramesOut != n || st.Flushes != uint64(cc.writes.Load()) {
		t.Errorf("frames out = %d, flushes = %d, socket writes = %d", st.FramesOut, st.Flushes, cc.writes.Load())
	}
}

// A frame another goroutine sends while the reader is mid-batch is not
// flushed by that send; it goes out when the reader runs dry.
func TestFlushDeferredFrameFromAnotherGoroutine(t *testing.T) {
	c, cc, raw := flushPair(t)
	peer := New(raw)
	rawWrite(raw, interestFrames(t, 0, 2))
	wantNonce(t, c, 0)
	if !c.inputPending.Load() || c.r.Buffered() == 0 {
		t.Fatalf("nonce 1 not buffered after nonce 0 (%d bytes buffered)", c.r.Buffered())
	}
	// Held only now: held before the first Receive, the backstop is what
	// that Receive's socket read fires, and a timer goroutine scheduled
	// late flushes the frame sent below.
	holdBackstop(c)
	sent := make(chan error, 1)
	go func() { sent <- c.SendInterest(nonceInterest(100)) }()
	// Nobody reads the pipe yet, so the send returns only if it deferred.
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if w := cc.writes.Load(); w != 0 {
		t.Fatalf("send with input pending wrote to the socket (%d writes)", w)
	}
	wantNonce(t, c, 1)
	go c.Receive() //nolint:errcheck // runs dry: fires the flush, then blocks until the pipe closes
	wantNonce(t, peer, 100)
}

// A reader that takes a packet with input pending and never calls
// Receive again cannot keep its promise; the backstop flushes the reply.
func TestFlushBackstopCoversAbsentReader(t *testing.T) {
	c, cc, raw := flushPair(t)
	peer := New(raw)
	peer.SetIdleTimeout(5 * time.Second) // fail, do not hang, if the reply never comes
	rawWrite(raw, interestFrames(t, 0, 2))
	wantNonce(t, c, 0)
	if err := c.SendInterest(nonceInterest(100)); err != nil {
		t.Fatal(err)
	}
	wantNonce(t, peer, 100)
	if w := cc.writes.Load(); w != 1 {
		t.Errorf("socket writes = %d, want 1", w)
	}
}

// The flush the reader fires runs under the write timeout, and its
// failure is sticky: the next send reports a fatal ConnError.
func TestFlushByReaderHonoursWriteTimeoutAndIsSticky(t *testing.T) {
	c, cc, raw := flushPair(t)
	cc.wrote = make(chan error, 1)
	c.SetWriteTimeout(50 * time.Millisecond)
	holdBackstop(c)
	rawWrite(raw, interestFrames(t, 0, 2))
	wantNonce(t, c, 0)
	if err := c.SendInterest(nonceInterest(100)); err != nil {
		t.Fatalf("deferred send: %v", err)
	}
	wantNonce(t, c, 1)
	go c.Receive() //nolint:errcheck // runs dry; the peer never reads the flush
	var ne net.Error
	if err := <-cc.wrote; !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("deferred flush against a wedged peer: %v, want a net timeout", err)
	}
	err := c.SendInterest(nonceInterest(101))
	if !IsFatal(err) || !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("send after a failed deferred flush: %v, want the sticky fatal timeout", err)
	}
	if c.Stats().Errors == 0 {
		t.Error("failed flush not counted as a connection error")
	}
}

// Half a frame in the read buffer counts as input pending: the reply is
// deferred, and the reader has it flushed on its way to the socket for
// the other half instead of waiting for a peer that waits for the reply.
func TestFlushPartialFramePendingDoesNotDeadlock(t *testing.T) {
	c, _, raw := flushPair(t)
	peer := New(raw)
	holdBackstop(c)
	frames := interestFrames(t, 0, 2)
	cut := len(frames) - 3
	rawWrite(raw, frames[:cut])
	wantNonce(t, c, 0)
	if err := c.SendInterest(nonceInterest(100)); err != nil {
		t.Fatal(err)
	}
	go func() {
		// The peer sends the rest only after it has the reply.
		if pkt, err := peer.Receive(); err == nil && pkt.Interest.Nonce == 100 {
			raw.Write(frames[cut:]) //nolint:errcheck // a lost write fails the receive below
		}
	}()
	wantNonce(t, c, 1)
}

// The reader must never wait for a write. A sends Interests open-loop
// from one goroutine and reads the replies slowly from another; B
// answers every Interest inline with 8 KiB of Data, as
// Producer.serveConn and an edge CS hit do. Once B blocks writing Data
// nobody drains A's Interests, A's sender blocks in write(2) holding mu
// (or leaves deferred frames that no longer fit the socket), and only
// A's reader can get things moving again: it must neither wait for mu
// nor flush those frames itself.
func TestFlushReaderKeepsDrainingBehindBlockedSender(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	small := func(c net.Conn) net.Conn { // reach the blocked state quickly
		// Only the send side is shrunk. A 64 KiB receive buffer on
		// loopback (64 KiB MTU) lets the kernel prune a whole queued
		// segment, and the retransmission backoff that follows can
		// outlast the 5 s no-progress bound below.
		c.(*net.TCPConn).SetWriteBuffer(64 << 10) //nolint:errcheck // only sizes the test
		return c
	}
	go func() { // B: reply inline
		raw, err := ln.Accept()
		if err != nil {
			return
		}
		b := New(small(raw))
		defer b.Close()
		payload := make([]byte, 8<<10)
		for {
			pkt, err := b.Receive()
			if err != nil {
				return
			}
			name := pkt.Interest.Name
			if b.SendData(&ndn.Data{Name: name, Content: &core.Content{
				Meta:    core.ContentMeta{Name: name, Level: 2, ProviderKey: name},
				Payload: payload,
			}}) != nil {
				return
			}
		}
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	a := New(small(raw))
	defer a.Close()

	const n = 20000
	go func() { // A's sender: open loop
		for i := uint64(0); i < n; i++ {
			if a.SendInterest(nonceInterest(i)) != nil {
				return
			}
		}
	}()
	var got atomic.Int64
	done := make(chan error, 1)
	go func() { // A's reader: slow at first, so the socket buffers fill
		for i := 0; i < n; i++ {
			if _, err := a.Receive(); err != nil {
				done <- err
				return
			}
			got.Add(1)
			if i < 200 {
				time.Sleep(time.Millisecond)
			}
		}
		done <- nil
	}()
	for last := int64(-1); ; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			return
		case <-time.After(5 * time.Second):
			now := got.Load()
			if now == last {
				t.Fatalf("no reply for 5 s after %d of %d: the reader is stuck behind a blocked write", now, n)
			}
			last = now
		}
	}
}

// Flushes counts the writes that reach the socket, whether a frame went
// through the write buffer or, larger than it, around it.
func TestFlushCountMatchesSocketWrites(t *testing.T) {
	c, cc, raw := flushPair(t)
	peer := New(raw)
	name := names.MustParse("/p/big")
	big := &ndn.Data{Name: name, Content: &core.Content{
		Meta:    core.ContentMeta{Name: name, Level: 2, ProviderKey: name},
		Payload: make([]byte, 0xffff), // the largest a Content field encodes: the frame outgrows the 64 KiB buffer
	}}
	errc := make(chan error, 1)
	go func() {
		err := c.SendInterest(nonceInterest(1))
		if err == nil {
			err = c.SendData(big)
		}
		errc <- err
	}()
	wantNonce(t, peer, 1)
	go peer.Receive() //nolint:errcheck // drains the large frame so the send completes
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if st, w := c.Stats(), cc.writes.Load(); st.Flushes != 2 || w != 2 {
		t.Errorf("flushes = %d, socket writes = %d, want 2 each", st.Flushes, w)
	}
}
