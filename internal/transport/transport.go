// Package transport carries TACTIC's NDN packets over real byte-stream
// connections (TCP, Unix sockets, net.Pipe): the deployable counterpart
// of the simulator's instantaneous delivery. Frames are the TLV
// encodings from internal/ndn, which are self-delimiting (type byte +
// variable-length length + body), so no extra framing layer is needed.
package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/obs"
)

// MaxPacketSize bounds a single packet (type + length + body); frames
// announcing more are rejected before allocation.
const MaxPacketSize = 1 << 20

// Packet types on the wire (the TLV outer types).
const (
	typeInterest = 0x05
	typeData     = 0x06
	// typeKeepalive is a zero-length liveness frame. Receive consumes it
	// internally (refreshing the idle deadline) and never surfaces it, so
	// peers that predate keepalives interoperate: they parse and ignore
	// the frame body, which is empty.
	typeKeepalive = 0x60
	// typeControl is a lifecycle control-plane frame (revocation push,
	// epoch rotation, neighbor BF sync); see ndn.Control.
	typeControl = 0x61
)

// Transport errors.
var (
	// ErrPacketTooLarge is returned for frames exceeding MaxPacketSize.
	ErrPacketTooLarge = errors.New("transport: packet exceeds maximum size")
	// ErrBadPacketType is returned for unknown outer TLV types.
	ErrBadPacketType = errors.New("transport: unknown packet type")
)

// ConnError marks a connection-level failure (broken pipe, write
// deadline exceeded, injected fault): the byte stream's framing can no
// longer be trusted and the connection must be recycled. Encoding
// errors and per-packet rejections (ErrPacketTooLarge on send) are NOT
// ConnErrors — the connection survives them.
type ConnError struct {
	// Op is the failing operation ("write", "flush").
	Op string
	// Err is the underlying error.
	Err error
}

func (e *ConnError) Error() string { return "transport: " + e.Op + ": " + e.Err.Error() }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *ConnError) Unwrap() error { return e.Err }

// IsFatal reports whether err invalidates the whole connection (the
// caller should close and recycle the face) rather than just the packet
// that produced it.
func IsFatal(err error) bool {
	var ce *ConnError
	return errors.As(err, &ce)
}

// Face is one attached wire endpoint, stream- or datagram-backed:
// *Conn frames packets over byte streams (TCP, Unix, net.Pipe) and
// *DatagramFace carries them over UDP with fragmentation. Reads are
// single-reader; sends are safe for concurrent use.
//
// A send that returns nil has queued the frame, not necessarily put it
// on the wire: a stream face holds frames back while its own reader
// still has received input to work through and writes them together
// when that reader runs dry, so a reply can wait for the face's reader
// to drain — bounded by 32 KiB of held frames and by a sub-millisecond
// backstop for a reader that does not come back (see Conn). A failed
// late flush is reported by the next send as a fatal error. A datagram
// face queues a send for its socket's write loop, except one its own
// kind of reader makes through its Scratch (Scratch.SendFrame): that
// joins the reader's batch, written by the reader when its queue runs
// dry or the batch holds 32 datagrams; a datagram the socket will not
// take then goes to the write loop, and is dropped as a face error when
// that queue is full too.
type Face interface {
	// Receive blocks for the next packet; keepalives are consumed
	// internally. io.EOF signals a clean close. The packet is the
	// caller's to keep.
	Receive() (Packet, error)
	// ReceiveInto is Receive with the reader owning the packet: an
	// Interest or a Data — its Content included — is decoded into s, and
	// the packet is valid until the reader's next call with s. What it
	// must keep longer it copies: a content store copies the Content in.
	ReceiveInto(s *Scratch) (Packet, error)
	// SendInterest, SendData, and SendControl encode and send one packet.
	SendInterest(*ndn.Interest) error
	SendData(*ndn.Data) error
	SendControl(*ndn.Control) error
	// SendFrame sends one pre-encoded TLV frame verbatim — the zero-copy
	// relay hook: a forwarder holding valid frame bytes need not re-encode.
	SendFrame(frame []byte) error
	// SendKeepalive sends one liveness frame.
	SendKeepalive() error
	// StartKeepalive sends liveness frames every interval until close.
	StartKeepalive(interval time.Duration)
	// SetWriteTimeout, SetIdleTimeout, and SetMetrics tune the face.
	SetWriteTimeout(d time.Duration)
	SetIdleTimeout(d time.Duration)
	SetMetrics(m *Metrics)
	// Stats snapshots the face's frame counters.
	Stats() Stats
	// RemoteAddr returns the peer address.
	RemoteAddr() net.Addr
	// Close releases the face.
	Close() error
}

// Packet is one received packet: exactly one of Interest, Data, or
// Control is non-nil.
type Packet struct {
	// Interest is set for Interest frames.
	Interest *ndn.Interest
	// Data is set for Data frames.
	Data *ndn.Data
	// Control is set for lifecycle control frames.
	Control *ndn.Control
	// DecodeDur is the TLV decode latency, measured on the same 1-in-64
	// sample that feeds Metrics.DecodeSeconds (zero otherwise); the
	// forwarder attaches it to trace spans when both samplers coincide.
	DecodeDur time.Duration
}

// Scratch is a reader's decode target for ReceiveInto: one per reader,
// reused for every packet it receives. A Data's Content decodes into
// Content, whose encoding buffer carries over from packet to packet.
//
// A datagram face's reader also sends through its Scratch (SendFrame):
// what it sends onto batch-I/O datagram faces while it works through its
// queue is written by the reader itself, as one batch per socket, when
// the queue runs dry.
type Scratch struct {
	Interest ndn.Interest
	Data     ndn.Data
	Content  core.Content

	out sendBatch
}

// SendFrame sends frame on f on behalf of the reader that owns s, which
// must be the goroutine calling it. Once a datagram face's ReceiveInto
// has armed s, a frame that fits one datagram, bound for a datagram face
// with batch I/O, joins the reader's batch and counts as sent; the reader
// writes it when ReceiveInto next finds its queue empty, when the batch
// holds batchMax datagrams, or on Flush. Any other frame, and every frame
// when s is nil, is f.SendFrame.
func (s *Scratch) SendFrame(f Face, frame []byte) error {
	if s != nil && s.out.armed {
		if df, ok := f.(*DatagramFace); ok && df.ep.bio != nil && len(frame) <= df.ep.opts.MTU {
			return s.out.add(df, frame)
		}
	}
	return f.SendFrame(frame)
}

// Flush writes what the reader's batch holds (see SendFrame). A reader
// that stops calling ReceiveInto flushes before it goes. A nil s has
// nothing to write.
func (s *Scratch) Flush() {
	if s != nil {
		s.out.flush()
	}
}

// Stats is a snapshot of one face's ledger. The face counts each frame
// here and nowhere else, so a registry series for the face is this
// snapshot read at scrape time.
type Stats struct {
	// FramesIn and FramesOut count complete frames received and sent, on
	// every carrier alike. A keepalive is a frame: it counts here in both
	// directions as well as under KeepalivesIn/KeepalivesOut. A packet
	// fragmented over several datagrams is one frame.
	FramesIn, FramesOut uint64
	// BytesIn and BytesOut count frame bytes (header + body); on a
	// datagram face BytesIn counts datagram bytes, fragment headers
	// included.
	BytesIn, BytesOut uint64
	// Errors counts framing, decoding and I/O failures (clean EOFs
	// excluded).
	Errors uint64
	// KeepalivesIn and KeepalivesOut count liveness frames exchanged.
	KeepalivesIn, KeepalivesOut uint64
	// Flushes counts write-buffer flushes on a stream face (zero on
	// datagram faces): FramesOut ÷ Flushes is the frames carried per
	// write to the socket.
	Flushes uint64
}

// Metrics carries a face's observability hooks that are not counters
// (those are Stats); any field may be unset.
type Metrics struct {
	// DecodeSeconds, when set, receives the TLV decode latency of a
	// sample (1 in 64) of received packets.
	DecodeSeconds *obs.Histogram
	// Events, when set, receives operator events from the face (e.g.
	// reassembly-eviction bursts), labelled with Face.
	Events *obs.Events
	// Face is the face ID used in emitted events (set it alongside
	// Events; -1 when the face has no forwarder ID).
	Face int
}

// decodeSampleMask selects which received packets are timed for
// Metrics.DecodeSeconds: packet counts where count&mask == 0.
const decodeSampleMask = 63

// Conn frames NDN packets over a byte stream. Reads are single-reader;
// writes are internally serialised and safe for concurrent use.
//
// Writes batch themselves under load. When Receive hands back a packet
// and more input is already buffered, the reader will be back in
// Receive without touching the socket, so frames sent meanwhile stay in
// the write buffer; just before the reader next goes to the socket
// (progressReader.Read) it has them flushed. With one packet in flight
// nothing is ever pending and every frame is flushed at once. A batch
// is bounded by deferFlushBytes and, for a reader that does not come
// back, by flushBackstop.
//
// The reader itself never takes the write lock and never writes: a
// sender blocked in the socket, or a flush the peer is slow to take,
// must not stop the reads that let the peer make progress. It fires the
// flush timer at once instead, so deferred frames are written from the
// timer's goroutine.
type Conn struct {
	faceCore
	c  net.Conn
	r  *bufio.Reader
	w  *bufio.Writer
	mu sync.Mutex // guards w, wErr and arming flushTimer

	// inputPending is the reader's promise to have deferred frames
	// flushed: set when Receive returns with more input buffered, cleared
	// when the reader goes to the socket and on a Receive error.
	inputPending atomic.Bool
	// deferred is set (under mu) while frames wait in w with flushTimer
	// armed, and cleared by the flush. The reader loads it without mu; a
	// frame deferred just as the reader looks is left to the armed timer.
	deferred atomic.Bool

	flushTimer *time.Timer
	// wErr is the sticky write-path error: once the stream failed (or a
	// deferred flush failed) every later send reports it as fatal.
	wErr error
}

// New wraps a net.Conn.
func New(c net.Conn) *Conn {
	conn := &Conn{c: c, w: bufio.NewWriterSize(c, 64<<10)}
	conn.done = make(chan struct{})
	conn.write = conn.writeFrame
	// Reads go through progressReader so the idle deadline refreshes on
	// every low-level read, not once per frame: a slow multi-KB frame on
	// a lossy link keeps making progress without tripping the idle timer.
	conn.r = bufio.NewReaderSize(&progressReader{c: conn}, 64<<10)
	return conn
}

// progressReader is the read path beneath the bufio.Reader: it pushes
// the idle deadline forward before every underlying read, so any byte
// of progress counts as liveness (reads served from the bufio buffer
// never block and need no deadline). It is the one place the read side
// goes to the socket and may block, so it first has the frames flushed
// that writers deferred on the reader's behalf.
type progressReader struct {
	c   *Conn
	set bool // a deadline is currently installed
}

func (p *progressReader) Read(b []byte) (int, error) {
	p.c.inputPending.Store(false)
	if p.c.deferred.Load() {
		p.c.flushTimer.Reset(0) // set before deferred was: see writeFrame
	}
	if d := time.Duration(p.c.idleTimeout.Load()); d > 0 {
		p.c.c.SetReadDeadline(time.Now().Add(d)) //nolint:errcheck // best-effort; the read reports failures
		p.set = true
	} else if p.set {
		p.c.c.SetReadDeadline(time.Time{}) //nolint:errcheck // best-effort
		p.set = false
	}
	return p.c.c.Read(b)
}

const (
	// deferFlushBytes flushes deferred frames early once this many bytes
	// are buffered, bounding a batch (and its latency) under load. Half
	// the write buffer, so a held frame always fits.
	deferFlushBytes = 32 << 10
	// flushBackstop bounds how long frames deferred on the reader's
	// promise wait when the reader does not come back promptly: blocked
	// on another wedged face, verifying aggregated records inline, or an
	// owner that stopped calling Receive.
	flushBackstop = time.Millisecond
)

// Close closes the underlying connection and stops the keepalive
// sender, if any. Deferred frames are flushed best-effort first
// (skipped when a writer currently holds the lock).
func (c *Conn) Close() error {
	c.markDone()
	if c.mu.TryLock() {
		if c.wErr == nil {
			c.flushLocked() //nolint:errcheck // best-effort on teardown
		}
		c.mu.Unlock()
	}
	err := c.c.Close()
	c.kaWG.Wait()
	return err
}

// RemoteAddr returns the peer address.
func (c *Conn) RemoteAddr() net.Addr { return c.c.RemoteAddr() }

// writeFrame queues one frame under the write lock and flushes, unless
// the reader has promised a later flush (inputPending) and the batch is
// still under deferFlushBytes. A failure here (including a write-deadline
// expiry) may leave a partial frame in the stream, so it is reported as a
// fatal ConnError.
func (c *Conn) writeFrame(frame []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.wErr != nil {
		return &ConnError{Op: "write", Err: c.wErr}
	}
	if c.inputPending.Load() && c.w.Buffered()+len(frame) < deferFlushBytes {
		c.w.Write(frame) //nolint:errcheck // fits the buffer: never reaches the socket
		// The first frame of a batch arms the backstop behind the reader's
		// promise. deferred is stored after flushTimer exists, so the
		// reader may use the timer without mu once it has seen deferred set.
		if !c.deferred.Load() {
			if c.flushTimer == nil {
				c.flushTimer = time.AfterFunc(flushBackstop, c.timerFlush)
			} else {
				c.flushTimer.Reset(flushBackstop)
			}
			c.deferred.Store(true)
		}
		return nil
	}
	c.setWriteDeadline()
	// A Write to the socket must carry whole frames only (a fault injected
	// per Write then loses packets, never the stream's framing), but bufio
	// splits a frame larger than its free space across two. Empty the
	// buffer first; the frame then fits, or goes to the socket on its own.
	if len(frame) > c.w.Available() {
		if err := c.flushLocked(); err != nil {
			return err
		}
	}
	if len(frame) > c.w.Size() {
		c.flushes.Add(1)
		if _, err := c.c.Write(frame); err != nil {
			c.errs.Add(1)
			c.wErr = err
			return &ConnError{Op: "write", Err: err}
		}
	} else {
		c.w.Write(frame) //nolint:errcheck // fits the buffer: never reaches the socket
		if err := c.flushLocked(); err != nil {
			return err
		}
	}
	return nil
}

// setWriteDeadline bounds the socket writes that follow by the write
// timeout, if one is set.
func (c *Conn) setWriteDeadline() {
	if d := time.Duration(c.writeTimeout.Load()); d > 0 {
		c.c.SetWriteDeadline(time.Now().Add(d)) //nolint:errcheck // best-effort; the write reports failures
	}
}

// flushLocked hands the write buffer to the socket and disarms the
// timer; the caller holds mu and has set the write deadline.
func (c *Conn) flushLocked() error {
	if c.deferred.Load() {
		c.flushTimer.Stop()
		c.deferred.Store(false)
	}
	if c.w.Buffered() == 0 {
		return nil
	}
	c.flushes.Add(1)
	if err := c.w.Flush(); err != nil {
		c.errs.Add(1)
		c.wErr = err
		return &ConnError{Op: "flush", Err: err}
	}
	return nil
}

// timerFlush is the flush timer's func and keeps the promise made to
// writeFrame: the reader ran dry and fired the timer, or the backstop
// ran out. It flushes whatever writers left buffered; errors are sticky
// and surface on the next send.
func (c *Conn) timerFlush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.wErr != nil || c.w.Buffered() == 0 {
		return
	}
	c.setWriteDeadline()
	c.flushLocked() //nolint:errcheck // sticky in wErr
}

// Receive blocks for the next packet. io.EOF signals a clean close.
// Keepalive frames are consumed internally: they refresh the idle
// deadline but are never surfaced. When it returns a packet with more
// input already buffered, sends defer their flush to the reader (see
// Conn) until it is back here and runs dry.
func (c *Conn) Receive() (Packet, error) { return c.ReceiveInto(nil) }

// ReceiveInto is Receive decoding into the reader-owned s (see Face);
// a nil s is Receive.
func (c *Conn) ReceiveInto(s *Scratch) (Packet, error) {
	pkt, err := c.receive(s)
	c.inputPending.Store(err == nil && c.r.Buffered() > 0)
	return pkt, err
}

// receive reads, counts and decodes frames until one is a packet. The
// frame bytes live in a pooled buffer released on return — safe because
// no decoded packet aliases the frame: the decoders copy what they keep.
// The idle deadline is applied beneath the bufio layer (progressReader),
// refreshed on any read progress rather than once per frame.
func (c *Conn) receive(s *Scratch) (Packet, error) {
	buf := ndn.AcquireBuffer()
	defer ndn.ReleaseBuffer(buf)
	for {
		frame, typ, err := readFrame(c.r, buf)
		if err != nil {
			if !errors.Is(err, io.EOF) { // clean close is not an error
				c.errs.Add(1)
			}
			return Packet{}, err
		}
		if pkt, ok, err := c.received(typ, frame, len(frame), s); ok || err != nil {
			return pkt, err
		}
	}
}

// readFrame reads one complete TLV frame from the stream into buf — the
// outer type byte, the variable-length length, and the body — growing
// buf when the frame exceeds its capacity. The returned frame aliases
// *buf. The header is read byte by byte from the concrete reader: a
// header array handed to io.ReadFull would escape through its io.Reader
// argument and cost an allocation per frame.
func readFrame(r *bufio.Reader, buf *[]byte) (frame []byte, typ byte, err error) {
	typ, err = r.ReadByte()
	if err != nil {
		return nil, 0, err // io.EOF passes through for clean closes
	}
	first, err := r.ReadByte()
	if err != nil {
		return nil, 0, eofToUnexpected(err)
	}
	var header [6]byte
	header[0], header[1] = typ, first
	headerLen := 2
	var length uint64
	switch {
	case first < 253:
		length = uint64(first)
	case first == 253:
		headerLen = 4
	case first == 254:
		headerLen = 6
	default:
		return nil, 0, fmt.Errorf("transport: unsupported length prefix %d", first)
	}
	for k := 2; k < headerLen; k++ { // the big-endian 16- or 32-bit length
		if header[k], err = r.ReadByte(); err != nil {
			return nil, 0, eofToUnexpected(err)
		}
		length = length<<8 | uint64(header[k])
	}
	if uint64(headerLen)+length > MaxPacketSize {
		return nil, 0, ErrPacketTooLarge
	}
	total := headerLen + int(length)
	if cap(*buf) < total {
		*buf = make([]byte, total)
	}
	frame = (*buf)[:total]
	copy(frame, header[:headerLen])
	if _, err := io.ReadFull(r, frame[headerLen:]); err != nil {
		return nil, 0, eofToUnexpected(err)
	}
	return frame, typ, nil
}

// eofToUnexpected maps mid-frame EOFs to ErrUnexpectedEOF so callers can
// distinguish clean closes (EOF before any byte) from truncation.
func eofToUnexpected(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
