package transport

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/obs"
)

// UDPOptions tunes a datagram endpoint or face. The zero value uses
// the package defaults.
type UDPOptions struct {
	// MTU is the per-datagram payload budget: frames larger than this are
	// fragmented (see frag.go). Both ends of a link should agree; default
	// DefaultMTU, minimum MinMTU.
	MTU int
	// noBatch forces single-datagram syscalls even where recvmmsg/
	// sendmmsg are available, so tests and benchmarks reach the path every
	// other platform runs.
	noBatch bool
}

// withDefaults resolves zero fields.
func (o UDPOptions) withDefaults() UDPOptions {
	if o.MTU <= 0 {
		o.MTU = DefaultMTU
	}
	if o.MTU < MinMTU {
		o.MTU = MinMTU
	}
	return o
}

// recvQueueLen is the per-face receive queue depth; datagrams arriving
// while the queue is full are dropped, as a congested UDP socket would.
const recvQueueLen = 1024

// maxWriteBurst is how many queued datagrams the write loop drains per
// round: deep enough that GSO can pack long equal-size runs (e.g. the
// fragments of several large frames) into few kernel traversals.
const maxWriteBurst = 512

// sendQueueLen is the endpoint's shared send queue depth; senders block
// (bounded by their write timeout) when it fills.
const sendQueueLen = 1024

// outDatagram is one queued send: a pooled buffer bound for addr.
type outDatagram struct {
	addr netip.AddrPort
	buf  *[]byte
}

// UDPEndpoint is one UDP socket demultiplexed into connectionless
// faces keyed by remote address: the first datagram from an unknown
// 5-tuple creates a face surfaced through Accept, and faces die on
// idle timeout (a NAT-rebound peer simply appears as a new face).
// Reads and writes go through recvmmsg/sendmmsg batches where the
// platform supports them, amortising syscall cost across datagrams.
type UDPEndpoint struct {
	// conn is the socket. pc is the same socket when this package opened
	// it (ListenUDP, DialUDP), read and written with addresses; it is nil
	// when conn is a wrapped datagram conn (NewDatagramConn), read and
	// written as it stands.
	conn net.Conn
	pc   *net.UDPConn
	opts UDPOptions
	bio  *batchIO // nil: single-datagram syscalls
	// rbuf is the single-datagram read scratch when bio == nil, sized
	// one byte past the datagram budget so truncation is detectable.
	rbuf []byte

	mu    sync.Mutex
	faces map[netip.AddrPort]*DatagramFace

	acceptQ chan *DatagramFace
	sendQ   chan outDatagram

	// peer, when non-nil, is the one face of a single-peer endpoint
	// (DialUDP, NewDatagramConn): datagrams from anyone else are dropped
	// and closing the face closes the endpoint.
	peer *DatagramFace

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	// rxDrops counts datagrams dropped on full face queues and new
	// remotes shed on a full accept backlog.
	rxDrops atomic.Uint64
	// dg counts the datagram plane for every face this socket ever
	// demuxed, dead ones included.
	dg dgramCounters
}

// dgramCounters is the datagram plane's ledger. It has one owner, the
// socket: every face counts into its endpoint's, which
// UDPEndpoint.Instrument exposes and the face of a single-peer endpoint
// exposes as its own (DatagramFace.Series).
type dgramCounters struct {
	// fragsIn and fragsOut count fragment datagrams moved; reassembled,
	// frames completed from fragments; reasmEvicted, partial packets
	// evicted before completing (timeout or slot pressure).
	fragsIn, fragsOut atomic.Uint64
	reassembled       atomic.Uint64
	reasmEvicted      atomic.Uint64
	// oversize counts datagrams larger than the receive buffer (MTU +
	// headroom), truncated by the socket and dropped — a peer configured
	// with a bigger MTU, not generic corruption, so kept apart from errors.
	oversize atomic.Uint64
}

// ListenUDP binds a datagram endpoint on addr ("host:port").
func ListenUDP(addr string, opts UDPOptions) (*UDPEndpoint, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	pc, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, err
	}
	ep := newEndpoint(pc, pc, opts)
	ep.start()
	return ep, nil
}

// DialUDP opens a datagram face to addr over a fresh ephemeral-port
// endpoint. The face is live immediately — UDP has no handshake — so
// peer death only surfaces through idle timeouts; pair SetIdleTimeout
// with keepalives when liveness matters.
func DialUDP(addr string, opts UDPOptions) (*DatagramFace, error) {
	ra, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	peer := canonAddr(ra.AddrPort())
	network := "udp6"
	if peer.Addr().Is4() {
		network = "udp4"
	}
	pc, err := net.ListenUDP(network, nil)
	if err != nil {
		return nil, err
	}
	return newEndpoint(pc, pc, opts).single(peer), nil
}

// NewDatagramConn wraps a datagram-semantics net.Conn (each Write is
// one datagram, each Read returns one whole datagram) as the face of a
// single-peer endpoint: the interposition point for fault injection
// (chaos.Wrap) and custom dialers, at single-datagram syscall cost. The
// conn talks to its one peer only, so any read error but a deadline (a
// reset's closed conn, a dead peer's ECONNREFUSED) ends the face at
// once, where a listener skips it.
func NewDatagramConn(c net.Conn, opts UDPOptions) *DatagramFace {
	ua, _ := c.RemoteAddr().(*net.UDPAddr)
	return newEndpoint(c, nil, opts).single(canonAddr(ua.AddrPort()))
}

// newEndpoint wires up the socket conn (pc is conn as this package's
// UDP socket, or nil; see UDPEndpoint) and, where available, batch I/O.
// start runs its loops.
func newEndpoint(conn net.Conn, pc *net.UDPConn, opts UDPOptions) *UDPEndpoint {
	opts = opts.withDefaults()
	// Deep socket buffers ride out bursts: a single MaxPacketSize frame
	// fans out into ~750 datagrams at the default MTU, far beyond the
	// kernel's default receive buffer. Best-effort; capped by rmem_max.
	if bc, ok := conn.(interface{ SetReadBuffer(int) error }); ok {
		bc.SetReadBuffer(4 << 20) //nolint:errcheck
	}
	if bc, ok := conn.(interface{ SetWriteBuffer(int) error }); ok {
		bc.SetWriteBuffer(4 << 20) //nolint:errcheck
	}
	bufSize := opts.MTU + 128
	if bufSize < 2048 {
		bufSize = 2048
	}
	ep := &UDPEndpoint{
		conn:    conn,
		pc:      pc,
		opts:    opts,
		faces:   make(map[netip.AddrPort]*DatagramFace),
		acceptQ: make(chan *DatagramFace, 64),
		sendQ:   make(chan outDatagram, sendQueueLen),
		closed:  make(chan struct{}),
	}
	if pc != nil && !opts.noBatch {
		ep.bio = newBatchIO(pc, bufSize)
	}
	if ep.bio == nil {
		// One byte of headroom past the budget: a read filling the whole
		// buffer means the kernel truncated an oversized datagram.
		ep.rbuf = make([]byte, bufSize+1)
	}
	return ep
}

// start runs the endpoint's read and write loops.
func (ep *UDPEndpoint) start() {
	ep.wg.Add(2)
	go ep.readLoop()
	go ep.writeLoop()
}

// single pins the endpoint to remote, starts it and returns its one face.
func (ep *UDPEndpoint) single(remote netip.AddrPort) *DatagramFace {
	ep.peer = ep.newFace(remote)
	ep.start()
	return ep.peer
}

// Accept blocks for the next auto-created face (first datagram from an
// unknown remote). Implements FaceListener.
func (ep *UDPEndpoint) Accept() (Face, error) {
	select {
	case f := <-ep.acceptQ:
		return f, nil
	case <-ep.closed:
		return nil, fmt.Errorf("transport: udp endpoint: %w", net.ErrClosed)
	}
}

// Addr returns the bound local address.
func (ep *UDPEndpoint) Addr() net.Addr { return ep.conn.LocalAddr() }

// Faces returns the number of live faces.
func (ep *UDPEndpoint) Faces() int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return len(ep.faces)
}

// RxDrops returns datagrams dropped on full per-face receive queues
// or shed on a full accept backlog.
func (ep *UDPEndpoint) RxDrops() uint64 { return ep.rxDrops.Load() }

// Fragments returns fragment datagrams received and sent across every
// face this endpoint ever demuxed (dead faces' counts persist).
func (ep *UDPEndpoint) Fragments() (in, out uint64) {
	return ep.dg.fragsIn.Load(), ep.dg.fragsOut.Load()
}

// Close stops the endpoint: the socket closes, the read loop ends and
// every face's Receive with it (with an error), and the loops drain.
func (ep *UDPEndpoint) Close() error {
	var err error
	ep.closeOnce.Do(func() {
		close(ep.closed)
		err = ep.conn.Close()
		ep.wg.Wait()
	})
	return err
}

// newFace creates and registers a face for remote (caller must ensure
// no face for remote exists).
func (ep *UDPEndpoint) newFace(remote netip.AddrPort) *DatagramFace {
	f := &DatagramFace{
		ep:    ep,
		raddr: remote,
		rq:    make(chan *[]byte, recvQueueLen),
		asm:   newReassembler(DefaultReassemblyEntries, DefaultReassemblyTimeout),
	}
	f.done = make(chan struct{})
	f.write = f.sendFrame
	ep.mu.Lock()
	ep.faces[remote] = f
	ep.mu.Unlock()
	return f
}

// dropFace unregisters a face (only if it is still the one mapped).
func (ep *UDPEndpoint) dropFace(f *DatagramFace) {
	ep.mu.Lock()
	if ep.faces[f.raddr] == f {
		delete(ep.faces, f.raddr)
	}
	ep.mu.Unlock()
}

// canonAddr normalises an address for face keying (IPv4-mapped IPv6
// unifies with plain IPv4 so a dialed v4 peer matches its replies).
func canonAddr(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// readLoop pulls datagram batches off the socket and demultiplexes
// them into per-face receive queues, creating faces for new remotes.
// Every face it fed ends when it does.
func (ep *UDPEndpoint) readLoop() {
	defer ep.wg.Done()
	defer func() {
		ep.mu.Lock()
		for _, f := range ep.faces {
			f.markDone()
		}
		ep.mu.Unlock()
	}()
	for {
		if ep.bio != nil {
			n, err := ep.bio.readBatch()
			if err != nil {
				if ep.readDead(err) {
					return
				}
				continue
			}
			for i := 0; i < n; i++ {
				data, addr, seg, trunc := ep.bio.msg(i)
				if trunc {
					// The kernel cut the datagram to fit the batch buffer
					// (MSG_TRUNC): an oversized send from a bigger-MTU peer.
					ep.dg.oversize.Add(1)
					continue
				}
				ap := canonAddr(addr)
				if seg > 0 && len(data) > seg {
					// A GRO message: several coalesced datagrams, every
					// seg bytes starting a new one, the last often shorter.
					for off := 0; off < len(data); off += seg {
						end := off + seg
						if end > len(data) {
							end = len(data)
						}
						ep.deliver(data[off:end], ap)
					}
					continue
				}
				ep.deliver(data, ap)
			}
			continue
		}
		var n int
		var addr netip.AddrPort
		var err error
		if ep.pc != nil {
			n, addr, err = ep.pc.ReadFromUDPAddrPort(ep.rbuf)
			addr = canonAddr(addr)
		} else {
			n, err = ep.conn.Read(ep.rbuf)
			addr = ep.peer.raddr
		}
		if err != nil {
			if ep.readDead(err) {
				return
			}
			continue
		}
		if n == len(ep.rbuf) {
			// The headroom byte was consumed: the datagram was truncated.
			ep.dg.oversize.Add(1)
			continue
		}
		ep.deliver(ep.rbuf[:n], addr)
	}
}

// readDead reports whether a read error means the endpoint is done: on
// a wrapped conn any error but a deadline, on a socket this package
// opened only its closing.
func (ep *UDPEndpoint) readDead(err error) bool {
	select {
	case <-ep.closed:
		return true
	default:
	}
	if ep.pc == nil {
		var nerr net.Error
		return !errors.As(err, &nerr) || !nerr.Timeout()
	}
	return errors.Is(err, net.ErrClosed)
}

// deliver routes one datagram to its face, creating the face when the
// remote is new. The datagram bytes are copied into a pooled buffer
// owned by the face until its receive loop releases it.
func (ep *UDPEndpoint) deliver(data []byte, addr netip.AddrPort) {
	f := ep.peer
	if f == nil {
		ep.mu.Lock()
		f = ep.faces[addr]
		ep.mu.Unlock()
	} else if addr != f.raddr {
		return // a single-peer endpoint talks to its one remote only
	}
	if f == nil {
		f = ep.newFace(addr)
		select {
		case ep.acceptQ <- f:
		default:
			// Accept backlog full (or endpoint closing): shed the new
			// remote instead of stalling the shared read loop — blocking
			// here would freeze receive for every existing face behind a
			// slow Accept caller. The remote's next datagram retries.
			ep.dropFace(f)
			f.markDone()
			ep.rxDrops.Add(1)
			return
		}
	}
	buf := ndn.AcquireBuffer()
	*buf = append((*buf)[:0], data...)
	select {
	case f.rq <- buf:
	default:
		// Face queue full: shed like a saturated socket buffer would.
		ndn.ReleaseBuffer(buf)
		ep.rxDrops.Add(1)
	}
}

// writeLoop drains the send queue in batches, releasing pooled buffers
// after each syscall round.
func (ep *UDPEndpoint) writeLoop() {
	defer ep.wg.Done()
	pend := make([]outDatagram, 0, maxWriteBurst)
	for {
		pend = pend[:0]
		select {
		case d := <-ep.sendQ:
			pend = append(pend, d)
		case <-ep.closed:
			return
		}
	fill:
		for len(pend) < maxWriteBurst {
			select {
			case d := <-ep.sendQ:
				pend = append(pend, d)
			default:
				break fill
			}
		}
		if ep.bio != nil {
			ep.bio.writeBatch(pend)
		} else {
			// Datagram sends are fire-and-forget; a wrapped conn's failure
			// surfaces on its read side.
			for _, d := range pend {
				if ep.pc != nil {
					ep.pc.WriteToUDPAddrPort(*d.buf, d.addr) //nolint:errcheck
				} else {
					ep.conn.Write(*d.buf) //nolint:errcheck
				}
			}
		}
		for i := range pend {
			ndn.ReleaseBuffer(pend[i].buf)
		}
	}
}

// enqueue queues one datagram for addr, blocking while the send queue
// is full (bounded by timeout when > 0). A closed endpoint refuses the
// datagram whether or not the queue has room: nobody drains it any more.
func (ep *UDPEndpoint) enqueue(addr netip.AddrPort, dg []byte, timeout time.Duration) error {
	select {
	case <-ep.closed:
		return &ConnError{Op: "write", Err: net.ErrClosed}
	default:
	}
	buf := ndn.AcquireBuffer()
	*buf = append((*buf)[:0], dg...)
	out := outDatagram{addr: addr, buf: buf}
	// Fast path: a queue with room needs no timer machinery.
	select {
	case ep.sendQ <- out:
		return nil
	default:
	}
	var expired <-chan time.Time // nil without a timeout: blocks forever
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	select {
	case ep.sendQ <- out:
		return nil
	case <-expired:
		ndn.ReleaseBuffer(buf)
		return &ConnError{Op: "write", Err: errors.New("transport: udp send queue full")}
	case <-ep.closed:
		ndn.ReleaseBuffer(buf)
		return &ConnError{Op: "write", Err: net.ErrClosed}
	}
}

// ErrIdleTimeout is returned by a datagram face's Receive when no
// datagram (keepalives count) arrived within the idle timeout.
var ErrIdleTimeout = errors.New("transport: idle timeout")

// DatagramFace carries NDN packets over UDP: one remote 5-tuple,
// fragmentation past the MTU, per-datagram (not per-stream) error
// recovery — a corrupt datagram is counted and skipped, because the
// next datagram re-synchronises framing for free. Every face is fed by
// the loops of a UDPEndpoint: a listener's demux, or a single-peer
// endpoint of its own (DialUDP, NewDatagramConn).
// Reads are single-reader; sends are safe for concurrent use.
type DatagramFace struct {
	faceCore

	ep    *UDPEndpoint
	raddr netip.AddrPort
	rq    chan *[]byte // datagrams the endpoint demuxed to this face

	asm   *reassembler
	pktID atomic.Uint64
	// evictSeen tracks how much of asm.evicted has been published into
	// the endpoint's ledger; plain (non-atomic) because only the single
	// receive loop that owns asm touches it.
	evictSeen uint64
	// evictGate rate-limits reassembly-eviction events to one per second.
	evictGate obs.BurstGate
	// idleTimer is the one timer behind every idle-timeout wait in
	// nextQueued, built on first use; the single receive loop owns it and
	// leaves it stopped and drained between waits.
	idleTimer *time.Timer
}

// Fragments returns fragment datagrams received and sent, read from the
// datagram-plane ledger of the face's endpoint (see dgramCounters;
// Series lists every counter of it): this face's traffic alone when it
// was dialed or wraps a conn, every face of the endpoint when it was
// demuxed from a listener.
func (f *DatagramFace) Fragments() (in, out uint64) { return f.ep.Fragments() }

// noteEvictions publishes reassembler evictions accumulated since the
// last call (the reassembler's counter is private to the receive loop)
// and emits a rate-limited reassembly_evict event. Called from the
// receive loop only, right after the reassembler ran.
func (f *DatagramFace) noteEvictions() {
	d := f.asm.evicted - f.evictSeen
	if d == 0 {
		return
	}
	f.evictSeen = f.asm.evicted
	f.ep.dg.reasmEvicted.Add(d)
	if m := f.metrics.Load(); m != nil && m.Events != nil {
		if burst := f.evictGate.Add(d); burst > 0 {
			m.Events.Emit(obs.EventReassemblyEvict, m.Face, f.RemoteAddr().String(), burst)
		}
	}
}

// RemoteAddr returns the peer address.
func (f *DatagramFace) RemoteAddr() net.Addr { return net.UDPAddrFromAddrPort(f.raddr) }

// Close releases the face. On a single-peer endpoint the whole endpoint
// closes with it; on a listener endpoint only this remote's slot frees
// (a later datagram from the same remote makes a fresh face).
func (f *DatagramFace) Close() error {
	f.markDone()
	var err error
	if f.ep.peer == f {
		err = f.ep.Close()
	} else {
		f.ep.dropFace(f)
	}
	f.kaWG.Wait()
	return err
}

// sendFrame fragments (when needed) and transmits one frame.
func (f *DatagramFace) sendFrame(frame []byte) error {
	select {
	case <-f.done:
		return net.ErrClosed
	default:
	}
	var id uint64
	var nfrags int
	mtu := f.ep.opts.MTU
	if len(frame) > mtu {
		id = f.pktID.Add(1)
		chunk := mtu - fragOverhead
		nfrags = (len(frame) + chunk - 1) / chunk
	}
	if err := fragmentFrame(frame, mtu, id, f.emit); err != nil {
		if IsFatal(err) {
			f.errs.Add(1)
		}
		return err
	}
	if nfrags > 0 {
		f.ep.dg.fragsOut.Add(uint64(nfrags))
	}
	return nil
}

// emit queues one datagram on the endpoint.
func (f *DatagramFace) emit(dg []byte) error {
	return f.ep.enqueue(f.raddr, dg, time.Duration(f.writeTimeout.Load()))
}

// Receive blocks for the next packet. Corrupt datagrams are counted
// and skipped (datagram framing self-heals); only endpoint teardown,
// socket death, or an idle timeout surface as errors.
func (f *DatagramFace) Receive() (Packet, error) { return f.ReceiveInto(nil) }

// ReceiveInto is Receive decoding into the reader-owned s (see Face);
// a nil s is Receive.
func (f *DatagramFace) ReceiveInto(s *Scratch) (Packet, error) {
	for {
		buf, err := f.nextQueued()
		if err != nil {
			return Packet{}, err
		}
		pkt, ok := f.process(*buf, s)
		ndn.ReleaseBuffer(buf)
		if ok {
			return pkt, nil
		}
	}
}

// nextQueued waits for the next datagram from the endpoint demux,
// honouring the idle timeout and face teardown.
func (f *DatagramFace) nextQueued() (*[]byte, error) {
	// Fast path: a queued datagram needs no timer machinery.
	select {
	case buf := <-f.rq:
		return buf, nil
	default:
	}
	if d := time.Duration(f.idleTimeout.Load()); d > 0 {
		t := f.idleTimer
		if t == nil {
			t = time.NewTimer(d)
			f.idleTimer = t
		} else {
			t.Reset(d)
		}
		select {
		case buf := <-f.rq:
			stopTimer(t)
			return buf, nil
		case <-t.C:
			return nil, ErrIdleTimeout
		case <-f.done:
			stopTimer(t)
			return nil, net.ErrClosed
		}
	}
	select {
	case buf := <-f.rq:
		return buf, nil
	case <-f.done:
		return nil, net.ErrClosed
	}
}

// stopTimer leaves t stopped with an empty channel, the only state in
// which Reset is safe while go.mod's go 1.22 keeps timer channels
// buffered: when t fired while its select took another case, the value
// is taken out.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		<-t.C
	}
}

// process ingests one datagram: a whole frame (a keepalive is one) is
// counted and decoded as it stands, a fragment feeds the reassembler and
// is a frame only once it completes one. ok reports whether pkt carries
// a decoded packet; a datagram that does not parse, reassemble or decode
// is counted as an error and skipped.
func (f *DatagramFace) process(dg []byte, s *Scratch) (pkt Packet, ok bool) {
	typ, body, err := parseDatagram(dg)
	if err != nil {
		f.errs.Add(1)
		return Packet{}, false
	}
	if typ != typeFrag {
		pkt, ok, _ = f.received(typ, dg, len(dg), s)
		return pkt, ok
	}
	f.bytesIn.Add(uint64(len(dg)))
	f.ep.dg.fragsIn.Add(1)
	frame, err := f.asm.add(time.Now(), body)
	f.noteEvictions()
	if err == nil && frame != nil && len(frame) == 0 {
		// The reassembler rejects empty fragments, so a complete frame
		// is never empty; guard anyway — frame[0] on a zero-length
		// reassembly would panic the receive loop on remote input.
		err = ErrBadFragment
	}
	if err != nil {
		f.errs.Add(1)
		return Packet{}, false
	}
	if frame == nil {
		return Packet{}, false
	}
	if pkt, ok, _ = f.received(frame[0], frame, 0, s); ok {
		f.ep.dg.reassembled.Add(1)
	}
	return pkt, ok
}
