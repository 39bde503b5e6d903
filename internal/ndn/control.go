package ndn

import (
	"encoding/binary"
	"fmt"

	"github.com/tactic-icn/tactic/internal/bloom"
	"github.com/tactic-icn/tactic/internal/core"
)

// Control frames are the lifecycle control plane's wire format: a
// provider's operator pushes revocation-set updates and epoch rotations to
// routers, and edge routers advertise their validated-tag filters to
// their peers. Control rides next to Interest/Data as its own outer TLV type
// (0x61, in the reserved range beside the transport keepalive), so
// forwarders that predate it reject the frame cleanly instead of
// misparsing it as traffic.

// ControlKind discriminates control messages.
type ControlKind uint8

// Control message kinds.
const (
	// CtrlRevoke carries a provider's whole revocation set at a set
	// version; it replaces the receiver's set.
	CtrlRevoke ControlKind = 1
	// CtrlRotate orders a BF epoch rotation to the carried epoch.
	CtrlRotate ControlKind = 2
	// CtrlBFSync advertises a neighbor's validated-tag filter.
	CtrlBFSync ControlKind = 3
)

// String returns the kind's stable label (metrics, logs).
func (k ControlKind) String() string {
	switch k {
	case CtrlRevoke:
		return "revoke"
	case CtrlRotate:
		return "rotate"
	case CtrlBFSync:
		return "bf_sync"
	}
	return fmt.Sprintf("kind_%d", uint8(k))
}

// Control is one control-plane message.
type Control struct {
	// Kind selects which fields below are meaningful.
	Kind ControlKind
	// Version orders messages from one origin: the revocation-set
	// version for CtrlRevoke, the target epoch for CtrlRotate (unused by
	// CtrlBFSync). Receivers apply such a message only when it advances
	// their state, which also terminates floods.
	Version uint64
	// Origin is the originating node's identity (diagnostics; for
	// CtrlBFSync it names whose filter the advert carries).
	Origin string

	// Revoked lists the revoked tag IDs (CtrlRevoke).
	Revoked []core.TagID

	// Bits and Hashes are the advertised filter's shape (CtrlBFSync);
	// receivers reject adverts from differently-shaped filters.
	Bits   uint64
	Hashes uint32
	// Words are the sender's non-zero bit-array words (CtrlBFSync): the
	// whole filter, at most 12 bytes per 64 bits of its shape. The
	// receiver ORs them in and reads its FPP from the bits.
	Words []bloom.WordDelta
}

// Control TLV types (outer frame type plus elements scoped to its body).
const (
	tlvControl = 0x61

	ctrlKind    = 0x01
	ctrlVersion = 0x02
	ctrlOrigin  = 0x03
	// 0x04 is retired: every revoke frame is the whole set, and a frame
	// that still carries the old full-set marker decodes with it skipped.
	ctrlRevoked = 0x05
	ctrlShape   = 0x06
	ctrlWords   = 0x07
	// 0x08 is retired: an advert carries no element count, since the
	// receiver reads its FPP from its bits, and a frame that still
	// carries one decodes with it skipped.
)

// tagIDSize is the wire size of one revoked-tag ID.
const tagIDSize = 32

// wordDeltaSize is the wire size of one advertised BF word (index + word).
const wordDeltaSize = 4 + 8

// EncodeControl serialises a control message to its TLV wire form.
func EncodeControl(c *Control) ([]byte, error) {
	return AppendControl(nil, c)
}

// AppendControl appends a control message's TLV wire form to dst (which
// may be nil or pooled scratch) and returns the extended slice.
func AppendControl(dst []byte, c *Control) ([]byte, error) {
	if c.Kind == 0 {
		return nil, fmt.Errorf("ndn: control message has no kind")
	}
	dst, start := openOuter(dst, tlvControl)
	dst = append(dst, ctrlKind, 1, byte(c.Kind))
	dst = append(dst, ctrlVersion, 8)
	dst = binary.BigEndian.AppendUint64(dst, c.Version)
	if c.Origin != "" {
		dst = appendTLV(dst, ctrlOrigin, []byte(c.Origin))
	}
	if len(c.Revoked) > 0 {
		dst = append(dst, ctrlRevoked)
		dst = appendVarLen(dst, uint64(len(c.Revoked)*tagIDSize))
		for i := range c.Revoked {
			dst = append(dst, c.Revoked[i][:]...)
		}
	}
	if c.Bits != 0 || c.Hashes != 0 {
		dst = append(dst, ctrlShape, 12)
		dst = binary.BigEndian.AppendUint64(dst, c.Bits)
		dst = binary.BigEndian.AppendUint32(dst, c.Hashes)
	}
	if len(c.Words) > 0 {
		dst = append(dst, ctrlWords)
		dst = appendVarLen(dst, uint64(len(c.Words)*wordDeltaSize))
		for _, w := range c.Words {
			dst = binary.BigEndian.AppendUint32(dst, w.Index)
			dst = binary.BigEndian.AppendUint64(dst, w.Word)
		}
	}
	return closeOuter(dst, start), nil
}

// DecodeControl reverses EncodeControl. Unknown elements are skipped,
// per the codec's evolvability convention.
func DecodeControl(b []byte) (*Control, error) {
	outer := tlvReader{buf: b}
	typ, body, ok, err := outer.next()
	if err != nil {
		return nil, err
	}
	if !ok || typ != tlvControl {
		return nil, fmt.Errorf("%w: want Control, got %#x", ErrTLVType, typ)
	}
	c := &Control{}
	r := tlvReader{buf: body}
	for {
		typ, v, ok, err := r.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		switch typ {
		case ctrlKind:
			if len(v) != 1 {
				return nil, fmt.Errorf("ndn: bad control Kind length %d", len(v))
			}
			c.Kind = ControlKind(v[0])
		case ctrlVersion:
			if len(v) != 8 {
				return nil, fmt.Errorf("ndn: bad control Version length %d", len(v))
			}
			c.Version = binary.BigEndian.Uint64(v)
		case ctrlOrigin:
			c.Origin = string(v)
		case ctrlRevoked:
			if len(v)%tagIDSize != 0 {
				return nil, fmt.Errorf("ndn: bad Revoked length %d", len(v))
			}
			c.Revoked = make([]core.TagID, len(v)/tagIDSize)
			for i := range c.Revoked {
				copy(c.Revoked[i][:], v[i*tagIDSize:])
			}
		case ctrlShape:
			if len(v) != 12 {
				return nil, fmt.Errorf("ndn: bad Shape length %d", len(v))
			}
			c.Bits = binary.BigEndian.Uint64(v)
			c.Hashes = binary.BigEndian.Uint32(v[8:])
		case ctrlWords:
			if len(v)%wordDeltaSize != 0 {
				return nil, fmt.Errorf("ndn: bad Words length %d", len(v))
			}
			c.Words = make([]bloom.WordDelta, len(v)/wordDeltaSize)
			for i := range c.Words {
				off := i * wordDeltaSize
				c.Words[i].Index = binary.BigEndian.Uint32(v[off:])
				c.Words[i].Word = binary.BigEndian.Uint64(v[off+4:])
			}
		default:
			// Skip unknown elements.
		}
	}
	if c.Kind == 0 {
		return nil, fmt.Errorf("ndn: control message has no kind")
	}
	return c, nil
}
