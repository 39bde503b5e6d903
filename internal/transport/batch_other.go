//go:build !linux || !(amd64 || arm64)

package transport

import (
	"net"
	"net/netip"
	"sync/atomic"
)

// batchMax still sizes the write-side drain on platforms without
// batched syscalls; each datagram is its own sendto.
const batchMax = 32

// batchIO is unavailable here; the endpoint falls back to
// single-datagram ReadFromUDPAddrPort/WriteToUDPAddrPort.
type batchIO struct{}

func newBatchIO(*net.UDPConn, int, *atomic.Uint64) *batchIO { return nil }

func (b *batchIO) readBatch() (int, error) { panic("transport: batch I/O unavailable") }
func (b *batchIO) msg(int) ([]byte, netip.AddrPort, int, bool) {
	panic("transport: batch I/O unavailable")
}
func (b *batchIO) writeBatch([]outDatagram, bool) []outDatagram {
	panic("transport: batch I/O unavailable")
}

// stats is callable (unlike the I/O methods, which never run here):
// metric closures scrape it unconditionally on every platform.
func (b *batchIO) stats() (gso, gro bool, fallbacks uint64) { return false, false, 0 }
