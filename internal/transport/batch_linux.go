//go:build linux && (amd64 || arm64)

// Batched UDP syscalls: recvmmsg/sendmmsg move up to batchMax datagrams
// per kernel crossing, and — where the kernel supports it — UDP
// generic segmentation/receive offload (UDP_SEGMENT / UDP_GRO) packs
// runs of equal-size datagrams to one peer into a single super-datagram
// that traverses the stack once, which is where the real per-packet
// cost lives. The stdlib does not expose any of this, and this repo
// carries no dependencies, so the calls go through syscall.Syscall6
// against a hand-laid-out mmsghdr — identical on linux/amd64 and
// linux/arm64 (64-bit, same struct padding). Other platforms fall back
// to single-datagram I/O (batch_other.go).
package transport

import (
	"math/bits"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// Syscall numbers: identical meaning, different numbering per arch
// (resolved in batch_nums_*.go).

const (
	// batchMax is the number of messages moved per syscall; with GSO a
	// message can itself carry up to gsoMaxSegs datagrams.
	batchMax = 32

	// solUDP / udpSegment / udpGRO are the UDP offload socket options
	// (missing from the syscall package).
	solUDP     = 17
	udpSegment = 103
	udpGRO     = 104

	// gsoMaxSegs caps datagrams per GSO send (kernel UDP_MAX_SEGMENTS
	// is 64) and gsoMaxBytes keeps the super-datagram inside one UDP
	// payload.
	gsoMaxSegs  = 64
	gsoMaxBytes = 60 << 10

	// groBufBytes sizes receive buffers when GRO is on: the kernel may
	// coalesce up to ~64 KB of segments into one message.
	groBufBytes = 64 << 10
)

// cmsgSpace16 is CMSG_SPACE(sizeof(uint16)) on 64-bit: a 16-byte
// cmsghdr plus 2 data bytes, rounded up to 8-byte alignment.
const cmsgSpace16 = 24

// mmsghdr mirrors struct mmsghdr: a msghdr plus the kernel-filled
// datagram length. The trailing pad keeps the array stride at what the
// kernel expects on 64-bit (sizeof(struct mmsghdr) == 64).
type mmsghdr struct {
	hdr  syscall.Msghdr
	mlen uint32
	_    [4]byte
}

// batchIO owns the scatter-gather state for one socket: fixed receive
// buffers reused across batches (zero-copy from the syscall's view —
// the kernel writes straight into them), per-slot sockaddr storage,
// per-slot iovec arrays for GSO sends, and per-slot cmsg buffers.
type batchIO struct {
	raw syscall.RawConn
	// v6 marks a v6 (possibly dual-stack) socket: v4 destinations are
	// sent as v4-mapped v6 sockaddrs.
	v6 bool
	// gso / gro record offload support probed at socket setup. gso may
	// flip off at runtime (writeBatch's fallback) and is guarded by smu;
	// gsoProbed keeps the immutable probe result for observers, and
	// fallbacks counts the runtime disable transitions so scrapers never
	// race writeBatch's plain bool.
	gso, gro  bool
	gsoProbed bool
	fallbacks atomic.Uint64
	// writes counts sendmmsg calls into the endpoint's ledger.
	writes *atomic.Uint64

	// smu is the send lock: writeBatch holds it over the send state below
	// (shdrs, siovs, snames, sctrls, gso and the send results), which the
	// endpoint's write loop and its faces' readers share.
	smu sync.Mutex

	rhdrs  [batchMax]mmsghdr
	riovs  [batchMax]syscall.Iovec
	rnames [batchMax]syscall.RawSockaddrAny
	rbufs  [batchMax][]byte
	rctrls [batchMax][cmsgSpace16]byte

	shdrs  [batchMax]mmsghdr
	siovs  [batchMax][gsoMaxSegs]syscall.Iovec
	snames [batchMax]syscall.RawSockaddrAny
	sctrls [batchMax][cmsgSpace16]byte

	// recv and send are the RawConn callbacks, built once: a closure made
	// per call would escape through the RawConn interface and cost an
	// allocation (plus its captured results) every syscall round. They
	// exchange arguments and results with readBatch and writeBatch through
	// the fields below — rn/rerr owned by the read loop, sfrom/sto/sn/serr
	// guarded by smu.
	recv, send func(fd uintptr) bool
	rn         int
	rerr       error
	sfrom, sto int // the shdrs[sfrom:sto] window one sendmmsg offers
	sn         int
	serr       syscall.Errno
}

// newBatchIO prepares batch state for pc, or nil when the socket does
// not expose a raw descriptor. Every sendmmsg call is counted in writes.
func newBatchIO(pc *net.UDPConn, bufSize int, writes *atomic.Uint64) *batchIO {
	raw, err := pc.SyscallConn()
	if err != nil {
		return nil
	}
	b := &batchIO{raw: raw, writes: writes}
	if la, ok := pc.LocalAddr().(*net.UDPAddr); ok && la.IP.To4() == nil {
		b.v6 = true
	}
	// Probe the UDP offloads: setting UDP_SEGMENT to 0 (off) succeeds
	// exactly when the kernel knows the option, and UDP_GRO arms
	// coalesced receives for the socket's lifetime.
	raw.Control(func(fd uintptr) { //nolint:errcheck // probe only
		if syscall.SetsockoptInt(int(fd), solUDP, udpSegment, 0) == nil {
			b.gso = true
			b.gsoProbed = true
		}
		if syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1) == nil {
			b.gro = true
		}
	})
	if b.gro && bufSize < groBufBytes {
		bufSize = groBufBytes
	}
	for i := range b.rbufs {
		b.rbufs[i] = make([]byte, bufSize)
		b.riovs[i].Base = &b.rbufs[i][0]
		b.riovs[i].SetLen(bufSize)
		b.rhdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&b.rnames[i]))
		b.rhdrs[i].hdr.Iov = &b.riovs[i]
		b.rhdrs[i].hdr.Iovlen = 1
		if b.gro {
			b.rhdrs[i].hdr.Control = &b.rctrls[i][0]
		}
		b.shdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&b.snames[i]))
		b.shdrs[i].hdr.Iov = &b.siovs[i][0]
		b.shdrs[i].hdr.Iovlen = 1
	}
	b.recv = b.recvmmsg
	b.send = b.sendmmsg
	return b
}

// readBatch blocks (via the runtime netpoller) until at least one
// datagram is readable, then drains up to batchMax messages in one
// recvmmsg. Returns the number of messages; index them with msg.
func (b *batchIO) readBatch() (int, error) {
	for i := range b.rhdrs {
		b.rhdrs[i].hdr.Namelen = syscall.SizeofSockaddrAny
		// Flags must clear every round: the kernel writes MSG_TRUNC there
		// when a datagram outgrows the buffer, and stale flags would mark
		// later datagrams in the slot as truncated.
		b.rhdrs[i].hdr.Flags = 0
		if b.gro {
			b.rhdrs[i].hdr.SetControllen(cmsgSpace16)
		}
	}
	b.rn, b.rerr = 0, nil
	if err := b.raw.Read(b.recv); err != nil {
		return 0, err
	}
	return b.rn, b.rerr
}

// recvmmsg is the raw.Read callback: one non-blocking recvmmsg over every
// receive slot, its outcome left in rn/rerr.
func (b *batchIO) recvmmsg(fd uintptr) bool {
	for {
		r1, _, e := syscall.Syscall6(sysRecvmmsg, fd,
			uintptr(unsafe.Pointer(&b.rhdrs[0])), batchMax,
			syscall.MSG_DONTWAIT, 0, 0)
		switch e {
		case 0:
			b.rn = int(r1)
			return true
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false // netpoller parks until readable
		default:
			b.rerr = e
			return true
		}
	}
}

// msg returns the i-th received message of the last readBatch plus its
// GRO segment size (0 = a plain datagram) and whether the kernel
// truncated it to fit the buffer (MSG_TRUNC — the sender's datagram was
// oversized and data is incomplete). When seg > 0 the bytes hold
// several coalesced datagrams: every seg bytes starts a new one, the
// last possibly shorter. The bytes alias the batch buffer — valid only
// until the next readBatch.
func (b *batchIO) msg(i int) (data []byte, addr netip.AddrPort, seg int, truncated bool) {
	data = b.rbufs[i][:b.rhdrs[i].mlen]
	addr = parseRawSockaddr(&b.rnames[i])
	if b.gro {
		seg = parseGROSegSize(b.rctrls[i][:], int(b.rhdrs[i].hdr.Controllen))
	}
	truncated = b.rhdrs[i].hdr.Flags&syscall.MSG_TRUNC != 0
	return data, addr, seg, truncated
}

// parseGROSegSize walks a control buffer for the UDP_GRO cmsg and
// returns its segment size, or 0 when absent.
func parseGROSegSize(ctrl []byte, n int) int {
	const hdrLen = syscall.SizeofCmsghdr
	for off := 0; off+hdrLen <= n && off+hdrLen <= len(ctrl); {
		h := (*syscall.Cmsghdr)(unsafe.Pointer(&ctrl[off]))
		if h.Len < hdrLen {
			return 0
		}
		if h.Level == solUDP && h.Type == udpGRO && off+hdrLen+2 <= len(ctrl) {
			return int(*(*uint16)(unsafe.Pointer(&ctrl[off+hdrLen])))
		}
		off += (int(h.Len) + 7) &^ 7
	}
	return 0
}

// putGSOCmsg fills one UDP_SEGMENT control message announcing seg-byte
// datagram boundaries inside the send buffer.
func putGSOCmsg(ctrl *[cmsgSpace16]byte, seg uint16) {
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&ctrl[0]))
	h.Level = solUDP
	h.Type = udpSegment
	h.SetLen(syscall.CmsgLen(2))
	*(*uint16)(unsafe.Pointer(&ctrl[syscall.SizeofCmsghdr])) = seg
}

// writeBatch sends the datagrams in msgs under the send lock.
// Consecutive datagrams to the same peer with the same size are packed
// into one GSO super-datagram (one kernel traversal for up to gsoMaxSegs
// of them); up to batchMax such messages go out per sendmmsg. Send errors
// skip the offending message — UDP is lossy by contract, and stalling the
// whole queue on one bad destination would be worse — except that an
// error on a GSO message disables the offload and retries its datagrams
// individually, so a path that rejects GSO degrades instead of dropping
// bursts.
//
// When the socket has no room (EAGAIN), a caller that may wait (the write
// loop) waits for room with the send lock released, so a face reader's
// write is never held behind a full socket, and carries on. A caller that
// may not (a face reader) gets back the unsent rest of msgs, a suffix of
// it; unsent is nil once everything went out or was dropped with a closed
// socket.
func (b *batchIO) writeBatch(msgs []outDatagram, wait bool) (unsent []outDatagram) {
	b.smu.Lock()
	defer b.smu.Unlock()
	for len(msgs) > 0 {
		nb := 0       // mmsghdr slots filled
		consumed := 0 // datagrams packed into those slots
		var starts, runs [batchMax]int
		for nb < batchMax && consumed < len(msgs) {
			m := msgs[consumed]
			size := len(*m.buf)
			run := 1
			if b.gso && size > 0 {
				for run < gsoMaxSegs &&
					consumed+run < len(msgs) &&
					msgs[consumed+run].addr == m.addr &&
					len(*msgs[consumed+run].buf) == size &&
					(run+1)*size <= gsoMaxBytes {
					run++
				}
			}
			for k := 0; k < run; k++ {
				b.siovs[nb][k].Base = &(*msgs[consumed+k].buf)[0]
				b.siovs[nb][k].SetLen(size)
			}
			b.shdrs[nb].hdr.Iovlen = uint64(run)
			b.shdrs[nb].hdr.Namelen = putRawSockaddr(&b.snames[nb], m.addr, b.v6)
			if run > 1 {
				putGSOCmsg(&b.sctrls[nb], uint16(size))
				b.shdrs[nb].hdr.Control = &b.sctrls[nb][0]
				b.shdrs[nb].hdr.SetControllen(cmsgSpace16)
			} else {
				b.shdrs[nb].hdr.Control = nil
				b.shdrs[nb].hdr.SetControllen(0)
			}
			starts[nb], runs[nb] = consumed, run
			nb++
			consumed += run
		}
		// repack is set when the slots from sent on must be filled again:
		// GSO was switched off, or another writer used them while this one
		// waited for room.
		sent, repack := 0, false
	send:
		for sent < nb {
			b.sfrom, b.sto, b.sn, b.serr = sent, nb, 0, 0
			if err := b.raw.Write(b.send); err != nil {
				return nil // socket closed; drop the rest
			}
			switch {
			case b.serr == 0:
				sent += b.sn
			case b.serr == syscall.EAGAIN:
				msgs, repack = msgs[starts[sent]:], true
				if !wait {
					return msgs
				}
				b.smu.Unlock()
				err := b.raw.Write(pollOut)
				b.smu.Lock()
				if err != nil {
					return nil
				}
				break send
			case runs[sent] > 1:
				// The kernel rejected a GSO message: turn the offload off
				// and replay its datagrams one per message.
				b.gso = false
				b.fallbacks.Add(1)
				msgs, repack = msgs[starts[sent]:], true
				break send
			default:
				sent++ // skip the single datagram the kernel rejected
			}
		}
		if !repack {
			msgs = msgs[consumed:]
		}
	}
	return nil
}

// sendmmsg is the raw.Write callback: one non-blocking sendmmsg over
// shdrs[sfrom:sto], its outcome left in sn/serr. It never parks: an
// EAGAIN is left in serr for writeBatch to wait on or hand back.
func (b *batchIO) sendmmsg(fd uintptr) bool {
	for {
		b.writes.Add(1)
		r1, _, e := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&b.shdrs[b.sfrom])), uintptr(b.sto-b.sfrom),
			syscall.MSG_DONTWAIT, 0, 0)
		switch e {
		case 0:
			b.sn = int(r1)
			return true
		case syscall.EINTR:
			continue
		default:
			b.serr = e
			return true
		}
	}
}

// pollOut is the raw.Write callback writeBatch waits for room on: a
// zero-timeout ppoll for POLLOUT. On false the netpoller parks until the
// socket turns writable and asks again.
func pollOut(fd uintptr) bool {
	const pollOutMask = 0x4 // POLLOUT
	pfd := struct {
		fd              int32
		events, revents int16
	}{fd: int32(fd), events: pollOutMask}
	var zero syscall.Timespec
	for {
		n, _, e := syscall.Syscall6(syscall.SYS_PPOLL, uintptr(unsafe.Pointer(&pfd)), 1,
			uintptr(unsafe.Pointer(&zero)), 0, 0, 0)
		switch e {
		case 0:
			return n > 0 // ready, or an error the next sendmmsg reports
		case syscall.EINTR:
			continue
		default:
			return true
		}
	}
}

// stats reports the probed offload support and how many times the GSO
// fallback fired. It reads only immutable and atomic state, so it is
// safe to call from a metrics scraper while writers run; GSO is
// effectively active when gsoProbed && fallbacks == 0.
func (b *batchIO) stats() (gso, gro bool, fallbacks uint64) {
	if b == nil {
		return false, false, 0
	}
	return b.gsoProbed, b.gro, b.fallbacks.Load()
}

// htons converts a port to the network byte order a raw sockaddr
// stores (read natively, the bytes appear swapped on little-endian).
func htons(p uint16) uint16 { return bits.ReverseBytes16(p) }

// parseRawSockaddr converts a kernel-filled sockaddr to an AddrPort.
func parseRawSockaddr(rsa *syscall.RawSockaddrAny) netip.AddrPort {
	switch rsa.Addr.Family {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
		return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), htons(sa.Port))
	case syscall.AF_INET6:
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(rsa))
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr).Unmap(), htons(sa.Port))
	}
	return netip.AddrPort{}
}

// putRawSockaddr encodes ap into rsa, returning the sockaddr length.
// On a v6 socket v4 destinations become v4-mapped v6 addresses.
func putRawSockaddr(rsa *syscall.RawSockaddrAny, ap netip.AddrPort, v6 bool) uint32 {
	if ap.Addr().Unmap().Is4() && !v6 {
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
		*sa = syscall.RawSockaddrInet4{
			Family: syscall.AF_INET,
			Port:   htons(ap.Port()),
			Addr:   ap.Addr().Unmap().As4(),
		}
		return syscall.SizeofSockaddrInet4
	}
	sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(rsa))
	*sa = syscall.RawSockaddrInet6{
		Family: syscall.AF_INET6,
		Port:   htons(ap.Port()),
		Addr:   ap.Addr().As16(), // As16 yields the v4-mapped form for v4
	}
	return uint32(syscall.SizeofSockaddrInet6)
}
