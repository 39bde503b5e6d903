//go:build linux && (amd64 || arm64)

package transport

import (
	"net"
	"sync/atomic"
	"testing"
)

// TestBatchIOAllocs: a recvmmsg or sendmmsg round allocates nothing —
// the RawConn callbacks are built once, not per call.
func TestBatchIOAllocs(t *testing.T) {
	pc, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	b := newBatchIO(pc, 2048, new(atomic.Uint64))
	if b == nil {
		t.Skip("no raw descriptor")
	}
	self := pc.LocalAddr().(*net.UDPAddr).AddrPort()
	payload := []byte{typeKeepalive, 0}
	msgs := []outDatagram{{addr: self, buf: &payload}}
	// The socket sends to itself: loopback delivery is synchronous, so the
	// datagram is readable by the time writeBatch returns.
	allocs := testing.AllocsPerRun(1000, func() {
		b.writeBatch(msgs, true)
		n, err := b.readBatch()
		if err != nil || n < 1 {
			t.Fatalf("readBatch = %d, %v", n, err)
		}
		if data, addr, _, trunc := b.msg(0); trunc || addr != self || string(data) != string(payload) {
			t.Fatalf("received %x from %v (truncated %v)", data, addr, trunc)
		}
	})
	if allocs != 0 {
		t.Errorf("a writeBatch+readBatch round allocates %.1f/op, want 0", allocs)
	}
}
