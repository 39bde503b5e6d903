package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"
)

// mkFragBody builds one fragment body (header + payload) by hand.
func mkFragBody(id uint64, index, count uint16, payload []byte) []byte {
	b := binary.BigEndian.AppendUint64(nil, id)
	b = binary.BigEndian.AppendUint16(b, index)
	b = binary.BigEndian.AppendUint16(b, count)
	return append(b, payload...)
}

// reassemble runs a frame through fragmentFrame and a fresh
// reassembler, returning the rebuilt frame.
func reassemble(t *testing.T, frame []byte, mtu int) []byte {
	t.Helper()
	r := newReassembler(0, 0)
	var out []byte
	err := fragmentFrame(frame, mtu, 42, func(dg []byte) error {
		if len(dg) > mtu {
			t.Fatalf("fragment datagram %d bytes exceeds mtu %d", len(dg), mtu)
		}
		if len(frame) <= mtu {
			// Sub-MTU frames are emitted verbatim, not wrapped: the frame
			// bytes here are opaque, so there is nothing to parse.
			out = append([]byte(nil), dg...)
			return nil
		}
		typ, body, err := parseDatagram(dg)
		if err != nil {
			return err
		}
		if typ != typeFrag {
			t.Fatalf("expected frag type, got %#x", typ)
		}
		got, err := r.add(time.Now(), body)
		if err != nil {
			return err
		}
		if got != nil {
			out = got
		}
		return nil
	})
	if err != nil {
		t.Fatalf("fragment: %v", err)
	}
	return out
}

func TestFragRoundTrip(t *testing.T) {
	for _, size := range []int{0, 1, 255, 256, 1399, 1400, 1401, 2800, 5000, 64 << 10} {
		frame := make([]byte, size)
		for i := range frame {
			frame[i] = byte(i * 7)
		}
		got := reassemble(t, frame, DefaultMTU)
		if !bytes.Equal(got, frame) {
			t.Fatalf("size %d: round trip mismatch (got %d bytes)", size, len(got))
		}
	}
}

func TestFragRoundTripSmallMTU(t *testing.T) {
	frame := make([]byte, 10_000)
	for i := range frame {
		frame[i] = byte(i)
	}
	if got := reassemble(t, frame, MinMTU); !bytes.Equal(got, frame) {
		t.Fatal("round trip mismatch at MinMTU")
	}
}

func TestFragTooManyFragments(t *testing.T) {
	frame := make([]byte, MaxPacketSize)
	err := fragmentFrame(frame, MinMTU, 1, func([]byte) error { return nil })
	if !errors.Is(err, ErrPacketTooLarge) {
		t.Fatalf("expected ErrPacketTooLarge, got %v", err)
	}
}

func TestReassemblerOutOfOrderAndDuplicates(t *testing.T) {
	r := newReassembler(4, time.Second)
	now := time.Now()
	// Three fragments delivered reversed, with a duplicate in between.
	for _, idx := range []uint16{2, 1, 1} {
		frame, err := r.add(now, mkFragBody(7, idx, 3, []byte{byte(idx)}))
		if err != nil || frame != nil {
			t.Fatalf("fragment %d: frame=%v err=%v", idx, frame, err)
		}
	}
	frame, err := r.add(now, mkFragBody(7, 0, 3, []byte{0}))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, []byte{0, 1, 2}) {
		t.Fatalf("reassembled %v", frame)
	}
}

func TestReassemblerTimeoutEviction(t *testing.T) {
	r := newReassembler(4, 50*time.Millisecond)
	start := time.Now()
	if _, err := r.add(start, mkFragBody(1, 0, 2, []byte("a"))); err != nil {
		t.Fatal(err)
	}
	// Past the deadline the partial packet is evicted; its straggler
	// starts a new (incomplete) packet instead of completing the old one.
	late := start.Add(100 * time.Millisecond)
	frame, err := r.add(late, mkFragBody(1, 1, 2, []byte("b")))
	if err != nil || frame != nil {
		t.Fatalf("straggler after eviction: frame=%q err=%v", frame, err)
	}
	if r.evicted != 1 {
		t.Fatalf("evicted=%d, want 1", r.evicted)
	}
}

func TestReassemblerCapacityEviction(t *testing.T) {
	r := newReassembler(2, time.Minute)
	now := time.Now()
	r.add(now, mkFragBody(1, 0, 2, []byte("a")))                       //nolint:errcheck
	r.add(now.Add(time.Millisecond), mkFragBody(2, 0, 2, []byte("b"))) //nolint:errcheck
	// A third packet evicts the oldest (id 1).
	r.add(now.Add(2*time.Millisecond), mkFragBody(3, 0, 2, []byte("c"))) //nolint:errcheck
	if len(r.entries) != 2 {
		t.Fatalf("entries=%d, want 2", len(r.entries))
	}
	if _, ok := r.entries[1]; ok {
		t.Fatal("oldest packet survived capacity eviction")
	}
}

func TestReassemblerRejectsMalformed(t *testing.T) {
	r := newReassembler(4, time.Second)
	now := time.Now()
	cases := [][]byte{
		nil,                                   // truncated header
		mkFragBody(1, 0, 0, nil),              // zero count
		mkFragBody(1, 5, 5, nil),              // index out of range
		mkFragBody(1, 0, maxFragCount+1, nil), // oversized count
		mkFragBody(1, 0, 1, nil),              // empty payload, count=1: would complete empty
		mkFragBody(1, 0, 2, nil),              // empty payload mid-packet
	}
	for i, body := range cases {
		if _, err := r.add(now, body); !errors.Is(err, ErrBadFragment) {
			t.Fatalf("case %d: expected ErrBadFragment, got %v", i, err)
		}
	}
	// Count mismatch across fragments of one packet discards the packet.
	r.add(now, mkFragBody(9, 0, 3, []byte("x"))) //nolint:errcheck
	if _, err := r.add(now, mkFragBody(9, 0, 2, []byte("y"))); !errors.Is(err, ErrBadFragment) {
		t.Fatalf("count mismatch: %v", err)
	}
	if _, ok := r.entries[9]; ok {
		t.Fatal("mismatched packet not discarded")
	}
}

func TestReassemblerNeverCompletesEmptyFrame(t *testing.T) {
	// A single-fragment packet with an empty payload must be rejected,
	// not reassembled into a zero-length frame: the receive path indexes
	// frame[0], so an empty completion would panic it on remote input.
	r := newReassembler(4, time.Second)
	frame, err := r.add(time.Now(), mkFragBody(99, 0, 1, nil))
	if !errors.Is(err, ErrBadFragment) {
		t.Fatalf("expected ErrBadFragment, got frame=%v err=%v", frame, err)
	}
	if frame != nil {
		t.Fatalf("empty fragment completed a %d-byte frame", len(frame))
	}
}

func TestReassemblerEmptyDuplicateCannotFakeCompletion(t *testing.T) {
	// Before payload receipt was tracked by a non-nil slice invariant, a
	// duplicated zero-length fragment double-counted have and completed a
	// packet with fragments missing. Empty payloads are now rejected
	// outright; a packet must still need every distinct index.
	r := newReassembler(4, time.Second)
	now := time.Now()
	if _, err := r.add(now, mkFragBody(5, 0, 3, nil)); !errors.Is(err, ErrBadFragment) {
		t.Fatalf("empty fragment accepted: %v", err)
	}
	if _, err := r.add(now, mkFragBody(5, 0, 3, nil)); !errors.Is(err, ErrBadFragment) {
		t.Fatalf("duplicate empty fragment accepted: %v", err)
	}
	r.add(now, mkFragBody(5, 0, 3, []byte("a"))) //nolint:errcheck
	r.add(now, mkFragBody(5, 1, 3, []byte("b"))) //nolint:errcheck
	// Duplicate of index 1 must not stand in for the missing index 2.
	frame, err := r.add(now, mkFragBody(5, 1, 3, []byte("b")))
	if err != nil || frame != nil {
		t.Fatalf("duplicate completed packet: frame=%v err=%v", frame, err)
	}
	frame, err = r.add(now, mkFragBody(5, 2, 3, []byte("c")))
	if err != nil || !bytes.Equal(frame, []byte("abc")) {
		t.Fatalf("completion: frame=%q err=%v", frame, err)
	}
}

func TestParseDatagramLengthMismatch(t *testing.T) {
	if _, _, err := parseDatagram([]byte{typeInterest, 5, 1, 2}); err == nil {
		t.Fatal("short body accepted")
	}
	if _, _, err := parseDatagram([]byte{typeInterest, 1, 1, 2}); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	typ, body, err := parseDatagram([]byte{typeKeepalive, 0})
	if err != nil || typ != typeKeepalive || len(body) != 0 {
		t.Fatalf("keepalive: typ=%#x body=%v err=%v", typ, body, err)
	}
}
