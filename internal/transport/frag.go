package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"github.com/tactic-icn/tactic/internal/ndn"
)

// Fragmentation carries TLV frames larger than the path MTU over
// datagram faces. A frame that fits in one datagram travels verbatim
// (the TLV is self-describing); a larger frame is split into typeFrag
// datagrams, each carrying a 12-byte header — packet ID (8), fragment
// index (2), fragment count (2) — followed by a slice of the original
// frame. The receiver reassembles by (packet ID, index) with bounded
// buffers and deadline eviction, so fragments may arrive reordered,
// duplicated, or never.
const (
	// typeFrag is the outer TLV type of one fragment datagram.
	typeFrag = 0x62
	// fragHeaderLen is the fixed fragment header: id(8) index(2) count(2).
	fragHeaderLen = 12
	// fragOverhead is the worst-case datagram overhead of one fragment:
	// outer type (1) + 2-byte length form (3) + the fragment header.
	fragOverhead = 1 + 3 + fragHeaderLen
	// maxFragCount bounds fragments per packet; with DefaultMTU this
	// comfortably covers MaxPacketSize.
	maxFragCount = 1024
)

// DefaultMTU is the per-datagram payload budget when UDPOptions.MTU is
// unset: conservative for 1500-byte Ethernet paths with IP/UDP headers
// and room for tunnel encapsulation.
const DefaultMTU = 1400

// MinMTU is the smallest accepted MTU.
const MinMTU = 256

// Reassembly bounds of every datagram face: a partial packet is evicted
// this long after its first fragment, and at most this many reassemble
// at once.
const (
	DefaultReassemblyTimeout = time.Second
	DefaultReassemblyEntries = 64
)

// Fragmentation errors.
var (
	// ErrBadFragment is returned for malformed fragment datagrams
	// (truncated header, zero or oversized count, index out of range,
	// empty payload, or a count disagreeing with earlier fragments of
	// the same packet).
	ErrBadFragment = errors.New("transport: malformed fragment")
	// ErrReassemblyOverflow is returned when a packet's fragments sum past
	// MaxPacketSize; the partial packet is discarded.
	ErrReassemblyOverflow = errors.New("transport: reassembled packet exceeds maximum size")
)

// appendTLVLen appends the TLV length encoding of n (the same 253/254
// variable-length form the stream framer reads).
func appendTLVLen(b []byte, n int) []byte {
	switch {
	case n < 253:
		return append(b, byte(n))
	case n <= 0xFFFF:
		return append(b, 253, byte(n>>8), byte(n))
	default:
		return append(b, 254, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	}
}

// parseDatagram splits one datagram into its outer TLV type and body.
// Unlike the stream framer, the datagram boundary is authoritative: the
// announced length must exactly fill the datagram.
func parseDatagram(dg []byte) (typ byte, body []byte, err error) {
	if len(dg) < 2 {
		return 0, nil, fmt.Errorf("transport: short datagram (%d bytes)", len(dg))
	}
	typ = dg[0]
	first := dg[1]
	var length int
	rest := dg[2:]
	switch {
	case first < 253:
		length = int(first)
	case first == 253:
		if len(rest) < 2 {
			return 0, nil, errors.New("transport: truncated length prefix")
		}
		length = int(binary.BigEndian.Uint16(rest))
		rest = rest[2:]
	case first == 254:
		if len(rest) < 4 {
			return 0, nil, errors.New("transport: truncated length prefix")
		}
		length = int(binary.BigEndian.Uint32(rest))
		rest = rest[4:]
	default:
		return 0, nil, fmt.Errorf("transport: unsupported length prefix %d", first)
	}
	if length != len(rest) {
		return 0, nil, fmt.Errorf("transport: datagram length mismatch (announced %d, carried %d)", length, len(rest))
	}
	return typ, rest, nil
}

// fragmentFrame emits frame as datagrams within mtu: verbatim when it
// fits, else as typeFrag fragments stamped with id. emit must not
// retain its argument past the call (fragments share a pooled scratch
// buffer).
func fragmentFrame(frame []byte, mtu int, id uint64, emit func(dg []byte) error) error {
	if len(frame) <= mtu {
		return emit(frame)
	}
	chunk := mtu - fragOverhead
	count := (len(frame) + chunk - 1) / chunk
	if count > maxFragCount {
		return ErrPacketTooLarge
	}
	buf := ndn.AcquireBuffer()
	defer ndn.ReleaseBuffer(buf)
	for i := 0; i < count; i++ {
		lo := i * chunk
		hi := lo + chunk
		if hi > len(frame) {
			hi = len(frame)
		}
		dg := append((*buf)[:0], typeFrag)
		dg = appendTLVLen(dg, fragHeaderLen+hi-lo)
		dg = binary.BigEndian.AppendUint64(dg, id)
		dg = binary.BigEndian.AppendUint16(dg, uint16(i))
		dg = binary.BigEndian.AppendUint16(dg, uint16(count))
		dg = append(dg, frame[lo:hi]...)
		*buf = dg[:0] // keep any growth for the pool
		if err := emit(dg); err != nil {
			return err
		}
	}
	return nil
}

// partialPacket is one in-flight reassembly.
type partialPacket struct {
	frags    [][]byte
	have     int
	size     int
	deadline time.Time
}

// reassembler rebuilds fragmented frames. It is bounded two ways:
// at most maxEntries packets reassemble concurrently (the oldest is
// evicted when a new packet needs the slot) and every partial packet is
// evicted timeout after its first fragment. Not safe for concurrent
// use — each face's single receive loop owns one.
type reassembler struct {
	timeout    time.Duration
	maxEntries int
	entries    map[uint64]*partialPacket
	// evicted counts partial packets dropped by deadline or capacity.
	evicted uint64
}

func newReassembler(maxEntries int, timeout time.Duration) *reassembler {
	if maxEntries <= 0 {
		maxEntries = DefaultReassemblyEntries
	}
	if timeout <= 0 {
		timeout = DefaultReassemblyTimeout
	}
	return &reassembler{
		timeout:    timeout,
		maxEntries: maxEntries,
		entries:    make(map[uint64]*partialPacket),
	}
}

// add ingests one fragment body (the bytes after the typeFrag TLV
// header) and returns the complete frame when this fragment finishes a
// packet, nil otherwise. Duplicate fragments are ignored; payload bytes
// are copied, so body may be reused by the caller.
func (r *reassembler) add(now time.Time, body []byte) ([]byte, error) {
	if len(body) < fragHeaderLen {
		return nil, ErrBadFragment
	}
	id := binary.BigEndian.Uint64(body)
	index := binary.BigEndian.Uint16(body[8:])
	count := binary.BigEndian.Uint16(body[10:])
	if count == 0 || count > maxFragCount || index >= count {
		return nil, ErrBadFragment
	}
	payload := body[fragHeaderLen:]
	if len(payload) == 0 {
		// fragmentFrame never emits empty fragments, so one is hostile or
		// corrupt. Accepting it would also break bookkeeping: the stored
		// copy of a zero-length payload is a nil slice, indistinguishable
		// from a missing fragment, so duplicates would double-count and a
		// packet could "complete" with fragments absent — or complete as a
		// zero-length frame the decode path cannot index.
		return nil, ErrBadFragment
	}
	r.expire(now)
	p := r.entries[id]
	if p == nil {
		if len(r.entries) >= r.maxEntries {
			r.evictOldest()
		}
		p = &partialPacket{
			frags:    make([][]byte, count),
			deadline: now.Add(r.timeout),
		}
		r.entries[id] = p
	} else if len(p.frags) != int(count) {
		// Fragments of one packet ID disagree about the count: the stream
		// is corrupt or hostile. Discard the whole packet.
		delete(r.entries, id)
		return nil, ErrBadFragment
	}
	if p.frags[index] != nil {
		return nil, nil // duplicate
	}
	p.frags[index] = append([]byte(nil), payload...)
	p.have++
	p.size += len(payload)
	if p.size > MaxPacketSize {
		delete(r.entries, id)
		return nil, ErrReassemblyOverflow
	}
	if p.have < len(p.frags) {
		return nil, nil
	}
	delete(r.entries, id)
	frame := make([]byte, 0, p.size)
	for _, f := range p.frags {
		frame = append(frame, f...)
	}
	return frame, nil
}

// expire evicts partial packets past their deadline.
func (r *reassembler) expire(now time.Time) {
	for id, p := range r.entries {
		if now.After(p.deadline) {
			delete(r.entries, id)
			r.evicted++
		}
	}
}

// evictOldest frees one slot by dropping the entry closest to expiry.
func (r *reassembler) evictOldest() {
	var oldest uint64
	var oldestDeadline time.Time
	first := true
	for id, p := range r.entries {
		if first || p.deadline.Before(oldestDeadline) {
			oldest, oldestDeadline, first = id, p.deadline, false
		}
	}
	if !first {
		delete(r.entries, oldest)
		r.evicted++
	}
}
