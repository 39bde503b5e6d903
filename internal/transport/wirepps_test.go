package transport

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
)

// Wire-benchmark knobs. The sender keeps wireWindow pre-encoded frames
// in flight and the receiver returns one cumulative credit frame every
// wireCreditEvery deliveries, so neither side ever blocks on a full
// socket buffer and — on datagram transports — the in-flight byte count
// stays far below the kernel buffers (credits cannot be lost to
// overflow, and a lost credit would be healed by the next one anyway,
// because credits carry the cumulative delivery count, not a delta).
const (
	// wireWindow is deliberately deep (~50 KB of 50-byte frames in
	// flight): write aggregation only pays off when the sender has a
	// backlog, and a shallow window would measure credit round-trip
	// latency instead of throughput.
	wireWindow      = 1024
	wireCreditEvery = 128
	// wireStallTimeout bounds how long either side waits without
	// progress before the benchmark fails instead of hanging.
	wireStallTimeout = 5 * time.Second
)

// nonceSentinel marks the nonce bytes inside a pre-encoded frame so the
// patch offset can be located once per frame.
const nonceSentinel = 0xA5C3A5C3A5C3A5C3

// encodeWithSentinel encodes an Interest carrying the sentinel nonce and
// returns the frame plus the offset of the 8 nonce bytes.
func encodeWithSentinel(b *testing.B, i *ndn.Interest) ([]byte, int) {
	b.Helper()
	i.Nonce = nonceSentinel
	frame, err := ndn.EncodeInterest(i)
	if err != nil {
		b.Fatal(err)
	}
	var pat [8]byte
	binary.BigEndian.PutUint64(pat[:], nonceSentinel)
	at := bytes.Index(frame, pat[:])
	if at < 0 || bytes.Contains(frame[at+8:], pat[:]) {
		b.Fatalf("nonce sentinel not unique in encoded frame")
	}
	return frame, at
}

// wirePair builds the two connected faces for one WirePPS variant:
// sender dials, receiver accepts.
func wirePair(b *testing.B, variant string) (sender, receiver Face) {
	b.Helper()
	switch variant {
	case "tcp":
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		accepted := make(chan net.Conn, 1)
		go func() {
			c, err := ln.Accept()
			if err != nil {
				close(accepted)
				return
			}
			accepted <- c
		}()
		cs, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		ss, ok := <-accepted
		ln.Close()
		if !ok {
			b.Fatal("accept failed")
		}
		sc := New(cs)
		rc := New(ss)
		b.Cleanup(func() { sc.Close(); rc.Close() })
		return sc, rc
	case "udp", "udp-batched":
		ep, cl := udpPair(b, UDPOptions{noBatch: variant == "udp"})
		// The listener face materialises on the first datagram: kick it
		// with a keepalive and accept.
		if err := cl.SendKeepalive(); err != nil {
			b.Fatal(err)
		}
		return cl, acceptOne(b, ep)
	default:
		b.Fatalf("unknown wire variant %q", variant)
		return nil, nil
	}
}

// BenchmarkWirePPS measures raw wire throughput — one op is one
// pre-encoded Interest frame delivered (received and decoded) across a
// real loopback socket — and reports it as a pps metric; compare it
// across variants (batched UDP should clear stream TCP by a wide margin).
// Variants:
//
//	tcp          stream framing, the default flush rule (frames sent while
//	             the sender's reader has credits buffered share a flush)
//	udp          datagram faces, one sendto/recvfrom per datagram
//	udp-batched  datagram faces over recvmmsg/sendmmsg batches
//
// Flow control is credit-based (cumulative count every wireCreditEvery
// frames), so the measurement is syscall + framing cost, not kernel
// buffer depth or retransmission luck.
func BenchmarkWirePPS(b *testing.B) {
	for _, variant := range []string{"tcp", "udp", "udp-batched"} {
		b.Run(variant, func(b *testing.B) { wirePPS(b, variant) })
	}
}

// wirePPS is the body of one BenchmarkWirePPS variant.
func wirePPS(b *testing.B, variant string) {
	sender, receiver := wirePair(b, variant)
	sender.SetIdleTimeout(wireStallTimeout)
	receiver.SetIdleTimeout(wireStallTimeout)

	wireName := names.MustNew("provbench", "obj", "chunk0")
	frame, _ := encodeWithSentinel(b, &ndn.Interest{
		Name: wireName, Kind: ndn.KindContent,
	})
	credit, creditAt := encodeWithSentinel(b, &ndn.Interest{
		Name: wireName, Kind: ndn.KindContent,
	})

	recvErr := make(chan error, 1)
	n := b.N
	b.ReportAllocs()
	b.ResetTimer()

	go func() {
		recvd := 0
		for recvd < n {
			pkt, err := receiver.Receive()
			if err != nil {
				recvErr <- err
				return
			}
			if pkt.Interest == nil {
				continue
			}
			recvd++
			if recvd%wireCreditEvery == 0 || recvd == n {
				binary.BigEndian.PutUint64(credit[creditAt:creditAt+8], uint64(recvd))
				if err := receiver.SendFrame(credit); err != nil {
					recvErr <- err
					return
				}
			}
		}
		recvErr <- nil
	}()

	sent, acked := 0, 0
	for sent < n {
		if sent-acked >= wireWindow {
			pkt, err := sender.Receive()
			if err != nil {
				b.Fatalf("credit wait after %d/%d frames: %v", sent, n, err)
			}
			if pkt.Interest != nil && int(pkt.Interest.Nonce) > acked {
				acked = int(pkt.Interest.Nonce)
			}
			continue
		}
		if err := sender.SendFrame(frame); err != nil {
			b.Fatalf("send %d: %v", sent, err)
		}
		sent++
	}
	if err := <-recvErr; err != nil {
		b.Fatalf("receiver: %v", err)
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(n)/secs, "pps")
	}
}
