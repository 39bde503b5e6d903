package ndn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
)

// NDN-style TLV wire codec for Interest and Data packets. The framing
// follows the NDN packet-format conventions (one-byte types,
// variable-length lengths: values < 253 in one byte, larger values as
// 253 followed by a 16-bit or 254 followed by a 32-bit big-endian
// length). Standard NDN types are used where they exist (Interest 0x05,
// Data 0x06, Name 0x07, GenericNameComponent 0x08, Nonce 0x0A, Content
// 0x15); TACTIC's extensions ride in the application-reserved range.

// TLV types.
const (
	tlvInterest      = 0x05
	tlvData          = 0x06
	tlvName          = 0x07
	tlvNameComponent = 0x08
	tlvNonce         = 0x0A
	tlvContent       = 0x15

	// Application-specific types (TACTIC extensions).
	tlvTag          = 0xF0
	tlvFlag         = 0xF1
	tlvAccessPath   = 0xF2
	tlvKind         = 0xF3
	tlvRegistration = 0xF4
	tlvNack         = 0xF5
	tlvRegResponse  = 0xF6
	tlvTraceCtx     = 0xF7
	tlvNackReason   = 0xF8
)

// TLV codec errors.
var (
	// ErrTLVTruncated is returned when a buffer ends mid-element.
	ErrTLVTruncated = errors.New("ndn: truncated TLV")
	// ErrTLVType is returned for an unexpected element type.
	ErrTLVType = errors.New("ndn: unexpected TLV type")
)

// appendTLV writes one type-length-value element.
func appendTLV(dst []byte, typ byte, value []byte) []byte {
	dst = append(dst, typ)
	dst = appendVarLen(dst, uint64(len(value)))
	return append(dst, value...)
}

// appendVarLen writes an NDN variable-length length.
func appendVarLen(dst []byte, n uint64) []byte {
	switch {
	case n < 253:
		return append(dst, byte(n))
	case n <= math.MaxUint16:
		dst = append(dst, 253)
		return binary.BigEndian.AppendUint16(dst, uint16(n))
	default:
		dst = append(dst, 254)
		return binary.BigEndian.AppendUint32(dst, uint32(n))
	}
}

// varLenSize returns how many bytes appendVarLen emits for n.
func varLenSize(n uint64) int {
	switch {
	case n < 253:
		return 1
	case n <= math.MaxUint16:
		return 3
	default:
		return 5
	}
}

// tlvReader walks a TLV buffer.
type tlvReader struct {
	buf []byte
	off int
}

// next returns the next element, or ok=false at the end of the buffer.
func (r *tlvReader) next() (typ byte, value []byte, ok bool, err error) {
	if r.off >= len(r.buf) {
		return 0, nil, false, nil
	}
	if r.off+2 > len(r.buf) {
		return 0, nil, false, ErrTLVTruncated
	}
	typ = r.buf[r.off]
	r.off++
	length, err := r.varLen()
	if err != nil {
		return 0, nil, false, err
	}
	if r.off+int(length) > len(r.buf) {
		return 0, nil, false, ErrTLVTruncated
	}
	value = r.buf[r.off : r.off+int(length)]
	r.off += int(length)
	return typ, value, true, nil
}

// varLen reads an NDN variable-length length.
func (r *tlvReader) varLen() (uint64, error) {
	if r.off >= len(r.buf) {
		return 0, ErrTLVTruncated
	}
	first := r.buf[r.off]
	r.off++
	switch {
	case first < 253:
		return uint64(first), nil
	case first == 253:
		if r.off+2 > len(r.buf) {
			return 0, ErrTLVTruncated
		}
		v := binary.BigEndian.Uint16(r.buf[r.off:])
		r.off += 2
		return uint64(v), nil
	case first == 254:
		if r.off+4 > len(r.buf) {
			return 0, ErrTLVTruncated
		}
		v := binary.BigEndian.Uint32(r.buf[r.off:])
		r.off += 4
		return uint64(v), nil
	default:
		return 0, fmt.Errorf("ndn: unsupported length prefix %d", first)
	}
}

// encodeName writes a Name element. The component lengths are summed
// first so the element is emitted in one pass with no intermediate
// buffer.
func encodeName(dst []byte, n names.Name) []byte {
	inner := 0
	for i := 0; i < n.Len(); i++ {
		l := len(n.Component(i))
		inner += 1 + varLenSize(uint64(l)) + l
	}
	dst = append(dst, tlvName)
	dst = appendVarLen(dst, uint64(inner))
	for i := 0; i < n.Len(); i++ {
		c := n.Component(i)
		dst = append(dst, tlvNameComponent)
		dst = appendVarLen(dst, uint64(len(c)))
		dst = append(dst, c...)
	}
	return dst
}

// decodeName parses a Name element's value.
func decodeName(value []byte) (names.Name, error) {
	r := tlvReader{buf: value}
	var comps []string
	for {
		typ, v, ok, err := r.next()
		if err != nil {
			return names.Name{}, err
		}
		if !ok {
			break
		}
		if typ != tlvNameComponent {
			return names.Name{}, fmt.Errorf("%w: %#x inside Name", ErrTLVType, typ)
		}
		comps = append(comps, string(v))
	}
	return names.New(comps...)
}

// openOuter starts an Interest/Data outer element using the 4-byte
// length form unconditionally, so the body can be appended in a single
// pass and the length patched in place afterwards (NDN decoders accept
// non-minimal length forms). Returns the body start offset for
// closeOuter.
func openOuter(dst []byte, typ byte) ([]byte, int) {
	dst = append(dst, typ, 254, 0, 0, 0, 0)
	return dst, len(dst)
}

// closeOuter patches the outer length opened by openOuter.
func closeOuter(dst []byte, start int) []byte {
	binary.BigEndian.PutUint32(dst[start-4:start], uint32(len(dst)-start))
	return dst
}

// EncodeInterest serialises an Interest to its TLV wire form.
func EncodeInterest(i *Interest) ([]byte, error) {
	return AppendInterest(nil, i)
}

// AppendInterest appends an Interest's TLV wire form to dst (which may
// be nil or pooled scratch) and returns the extended slice. The packet
// is emitted in one pass with no intermediate buffers.
func AppendInterest(dst []byte, i *Interest) ([]byte, error) {
	dst, start := openOuter(dst, tlvInterest)
	dst = encodeName(dst, i.Name)
	dst = append(dst, tlvKind, 1, byte(i.Kind))
	dst = append(dst, tlvNonce, 8)
	dst = binary.BigEndian.AppendUint64(dst, i.Nonce)
	if i.Tag != nil {
		dst = appendTLV(dst, tlvTag, i.Tag.Encode())
	}
	if i.Flag != 0 {
		dst = append(dst, tlvFlag, 8)
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(i.Flag))
	}
	if i.AccessPath != 0 {
		dst = append(dst, tlvAccessPath, 8)
		dst = binary.BigEndian.AppendUint64(dst, uint64(i.AccessPath))
	}
	if i.Registration != nil {
		reg, err := core.EncodeRegistrationRequest(i.Registration)
		if err != nil {
			return nil, err
		}
		dst = appendTLV(dst, tlvRegistration, reg)
	}
	if i.Trace.Valid() {
		dst = appendTraceCtx(dst, i.Trace)
	}
	return closeOuter(dst, start), nil
}

// DecodeInterest reverses EncodeInterest into a new Interest the caller
// owns; it is DecodeInterestInto on a fresh target.
func DecodeInterest(b []byte) (*Interest, error) {
	i := new(Interest)
	if err := DecodeInterestInto(i, b); err != nil {
		return nil, err
	}
	return i, nil
}

// DecodeInterestInto reverses EncodeInterest into i, whose every field
// is overwritten: a reader can decode each packet into one target it
// owns, which then holds no state of the packet before (on error it
// holds no usable packet). Nothing decoded aliases b.
func DecodeInterestInto(i *Interest, b []byte) error {
	*i = Interest{}
	outer := tlvReader{buf: b}
	typ, body, ok, err := outer.next()
	if err != nil {
		return err
	}
	if !ok || typ != tlvInterest {
		return fmt.Errorf("%w: want Interest, got %#x", ErrTLVType, typ)
	}
	r := tlvReader{buf: body}
	for {
		typ, v, ok, err := r.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		switch typ {
		case tlvName:
			if i.Name, err = nameIntern.Resolve(v, decodeName); err != nil {
				return err
			}
		case tlvKind:
			if len(v) != 1 {
				return fmt.Errorf("ndn: bad Kind length %d", len(v))
			}
			i.Kind = InterestKind(v[0])
		case tlvNonce:
			if len(v) != 8 {
				return fmt.Errorf("ndn: bad Nonce length %d", len(v))
			}
			i.Nonce = binary.BigEndian.Uint64(v)
		case tlvTag:
			if i.Tag, err = tagIntern.Resolve(v, core.DecodeTag); err != nil {
				return err
			}
		case tlvFlag:
			if len(v) != 8 {
				return fmt.Errorf("ndn: bad Flag length %d", len(v))
			}
			i.Flag = math.Float64frombits(binary.BigEndian.Uint64(v))
		case tlvAccessPath:
			if len(v) != 8 {
				return fmt.Errorf("ndn: bad AccessPath length %d", len(v))
			}
			i.AccessPath = core.AccessPath(binary.BigEndian.Uint64(v))
		case tlvRegistration:
			if i.Registration, err = core.DecodeRegistrationRequest(v); err != nil {
				return err
			}
		case tlvTraceCtx:
			if i.Trace, err = decodeTraceCtx(v); err != nil {
				return err
			}
		default:
			// Unknown non-critical elements are skipped, per NDN's
			// evolvability convention.
		}
	}
	if i.Kind == 0 {
		i.Kind = KindContent
	}
	return nil
}

// EncodeData serialises a Data packet to its TLV wire form. On a NACK,
// NackReason crosses the wire as a one-byte reason code (NackReason TLV
// 0xF8) mapped through core.ReasonCode, so downstream routers and
// clients can distinguish an enforcement verdict (forged, expired, …)
// from an Overload shed and react accordingly.
func EncodeData(d *Data) ([]byte, error) {
	return AppendData(nil, d)
}

// AppendData appends a Data packet's TLV wire form to dst (which may be
// nil or pooled scratch) and returns the extended slice. Contents and
// tags decoded off the wire contribute their cached encodings, so a
// content-store hit is serialised without re-encoding the payload.
func AppendData(dst []byte, d *Data) ([]byte, error) {
	dst, start := openOuter(dst, tlvData)
	dst = encodeName(dst, d.Name)
	if d.Content != nil {
		enc, err := core.EncodeContent(d.Content)
		if err != nil {
			return nil, err
		}
		dst = appendTLV(dst, tlvContent, enc)
	}
	if d.Tag != nil {
		dst = appendTLV(dst, tlvTag, d.Tag.Encode())
	}
	if d.Flag != 0 {
		dst = append(dst, tlvFlag, 8)
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(d.Flag))
	}
	if d.Nack {
		dst = append(dst, tlvNack, 0)
		if d.NackReason != nil {
			dst = append(dst, tlvNackReason, 1, core.ReasonCode(d.NackReason))
		}
	}
	if d.Registration != nil {
		enc, err := core.EncodeRegistrationResponse(d.Registration)
		if err != nil {
			return nil, err
		}
		dst = appendTLV(dst, tlvRegResponse, enc)
	}
	if d.Trace.Valid() {
		dst = appendTraceCtx(dst, d.Trace)
	}
	return closeOuter(dst, start), nil
}

// ownedData is what DecodeData allocates: a Data and the Content it
// points at, as one object.
type ownedData struct {
	Data
	content core.Content
}

// DecodeData reverses EncodeData into a new Data the caller owns. The
// Data and its Content are one allocation, so a Data with content costs
// that object and the Content's copy of its encoding.
func DecodeData(b []byte) (*Data, error) {
	o := new(ownedData)
	if err := decodeData(&o.Data, &o.content, b); err != nil {
		return nil, err
	}
	return &o.Data, nil
}

// DecodeDataInto reverses EncodeData into d, whose every field is
// overwritten (on error d holds no usable packet). A Content element
// decodes into content, which must not be nil and whose encoding buffer
// is reused (core.DecodeContentInto), so d and its Content are the
// caller's targets: valid until the next decode into them, with nothing
// decoded aliasing b. What must outlive that — a content store's chunk —
// is copied.
func DecodeDataInto(d *Data, content *core.Content, b []byte) error {
	return decodeData(d, content, b)
}

// decodeData is the one Data decoder: a Content element decodes into
// content.
func decodeData(d *Data, content *core.Content, b []byte) error {
	*d = Data{}
	outer := tlvReader{buf: b}
	typ, body, ok, err := outer.next()
	if err != nil {
		return err
	}
	if !ok || typ != tlvData {
		return fmt.Errorf("%w: want Data, got %#x", ErrTLVType, typ)
	}
	r := tlvReader{buf: body}
	for {
		typ, v, ok, err := r.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		switch typ {
		case tlvName:
			if d.Name, err = nameIntern.Resolve(v, decodeName); err != nil {
				return err
			}
		case tlvContent:
			if err = core.DecodeContentInto(content, v); err != nil {
				return err
			}
			d.Content = content
		case tlvTag:
			if d.Tag, err = tagIntern.Resolve(v, core.DecodeTag); err != nil {
				return err
			}
		case tlvFlag:
			if len(v) != 8 {
				return fmt.Errorf("ndn: bad Flag length %d", len(v))
			}
			d.Flag = math.Float64frombits(binary.BigEndian.Uint64(v))
		case tlvNack:
			d.Nack = true
		case tlvNackReason:
			if len(v) != 1 {
				return fmt.Errorf("ndn: bad NackReason length %d", len(v))
			}
			d.NackReason = core.ReasonFromCode(v[0])
		case tlvRegResponse:
			if d.Registration, err = core.DecodeRegistrationResponse(v); err != nil {
				return err
			}
		case tlvTraceCtx:
			if d.Trace, err = decodeTraceCtx(v); err != nil {
				return err
			}
		default:
			// Skip unknown elements.
		}
	}
	return nil
}
