package perf

import (
	"net"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/transport"
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
	// wireCoalesceWindow is the sender-side aggregation window for the
	// tcp-coalesced variant: small enough to stay far below the credit
	// round trip, large enough to gather many frames per flush.
	wireCoalesceWindow = 200 * time.Microsecond
	// wireStallTimeout bounds how long either side waits without
	// progress before the benchmark fails instead of hanging.
	wireStallTimeout = 5 * time.Second
)

// wirePair builds the two connected faces for one WirePPS variant:
// sender dials, receiver accepts.
func wirePair(b *testing.B, variant string) (sender, receiver transport.Face) {
	b.Helper()
	switch variant {
	case "tcp", "tcp-coalesced":
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
		sc := transport.New(cs)
		if variant == "tcp-coalesced" {
			// Coalesce only the bulk direction: credits must flush
			// immediately or the sender stalls on flow control.
			sc.SetCoalesce(wireCoalesceWindow)
		}
		rc := transport.New(ss)
		b.Cleanup(func() { sc.Close(); rc.Close() })
		return sc, rc
	case "udp", "udp-batched":
		opts := transport.UDPOptions{DisableBatch: variant == "udp"}
		ep, err := transport.ListenUDP("127.0.0.1:0", opts)
		if err != nil {
			b.Fatal(err)
		}
		cl, err := transport.DialUDP(ep.Addr().String(), opts)
		if err != nil {
			ep.Close()
			b.Fatal(err)
		}
		// The listener face materialises on the first datagram: kick it
		// with a keepalive and accept.
		if err := cl.SendKeepalive(); err != nil {
			b.Fatal(err)
		}
		type res struct {
			f   transport.Face
			err error
		}
		ch := make(chan res, 1)
		go func() {
			f, err := ep.Accept()
			ch <- res{f, err}
		}()
		var srv transport.Face
		select {
		case r := <-ch:
			if r.err != nil {
				b.Fatal(r.err)
			}
			srv = r.f
		case <-time.After(wireStallTimeout):
			b.Fatal("udp accept timed out")
		}
		b.Cleanup(func() { cl.Close(); ep.Close() })
		return cl, srv
	default:
		b.Fatalf("unknown wire variant %q", variant)
		return nil, nil
	}
}

// WirePPS returns a benchmark body measuring raw wire throughput — one
// op is one pre-encoded Interest frame delivered (received and decoded)
// across a real loopback socket — and reporting it as a pps metric.
// Variants:
//
//	tcp           stream framing, the default flush rule (frames sent while
//	              the sender's reader has credits buffered share a flush)
//	tcp-coalesced the same plus a sender-side time window (SetCoalesce)
//	udp           datagram faces, one sendto/recvfrom per datagram
//	udp-batched   datagram faces over recvmmsg/sendmmsg batches
//
// Flow control is credit-based (cumulative count every wireCreditEvery
// frames), so the measurement is syscall + framing cost, not kernel
// buffer depth or retransmission luck.
func WirePPS(variant string) func(*testing.B) {
	return func(b *testing.B) {
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
			cl := &benchClient{} // for patchNonce
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
					cl.patchNonce(credit, creditAt, uint64(recvd))
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
}
