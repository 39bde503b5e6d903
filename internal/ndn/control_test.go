package ndn

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/bits"
	"reflect"
	"testing"

	"github.com/tactic-icn/tactic/internal/bloom"
	"github.com/tactic-icn/tactic/internal/core"
)

func tagIDOf(b byte) core.TagID {
	return core.TagID(sha256.Sum256([]byte{b}))
}

func TestControlRoundTrip(t *testing.T) {
	cases := []*Control{
		{Kind: CtrlRevoke, Version: 7, Origin: "issuer",
			Revoked: []core.TagID{tagIDOf(1), tagIDOf(2)}},
		{Kind: CtrlRevoke, Version: 1, Revoked: []core.TagID{tagIDOf(9)}},
		{Kind: CtrlRotate, Version: 3, Origin: "e0"},
		{Kind: CtrlBFSync, Version: 12, Origin: "e1", Bits: 4793, Hashes: 5,
			Words: []bloom.WordDelta{{Index: 0, Word: 0xdeadbeef}, {Index: 74, Word: 1}}},
	}
	for _, c := range cases {
		enc, err := EncodeControl(c)
		if err != nil {
			t.Fatalf("EncodeControl(%v): %v", c.Kind, err)
		}
		got, err := DecodeControl(enc)
		if err != nil {
			t.Fatalf("DecodeControl(%v): %v", c.Kind, err)
		}
		if !reflect.DeepEqual(got, c) {
			t.Fatalf("control round trip mutated message:\n got %+v\nwant %+v", got, c)
		}
	}
}

func TestControlRejectsMalformed(t *testing.T) {
	base, err := EncodeControl(&Control{Kind: CtrlRevoke, Version: 1, Revoked: []core.TagID{tagIDOf(1)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeControl(nil); err == nil {
		t.Error("decoded empty buffer")
	}
	if _, err := DecodeControl(base[:len(base)-3]); err == nil {
		t.Error("decoded truncated control frame")
	}
	if _, err := EncodeControl(&Control{}); err == nil {
		t.Error("encoded kindless control message")
	}
	// A control body with no kind element must be rejected.
	var kindless []byte
	kindless, start := openOuter(kindless, tlvControl)
	kindless = append(kindless, ctrlVersion, 8)
	kindless = binary.BigEndian.AppendUint64(kindless, 1)
	kindless = closeOuter(kindless, start)
	if _, err := DecodeControl(kindless); err == nil {
		t.Error("decoded control message without a kind")
	}
	// A revoked list that is not a whole number of tag IDs is torn.
	torn := append([]byte(nil), base...)
	// Find the revoked element and shrink its declared length by one.
	i := bytes.IndexByte(torn[6:], ctrlRevoked) + 6
	if torn[i+1] != 32 {
		t.Fatalf("unexpected revoked element layout at %d", i)
	}
	torn[i+1] = 31
	torn = torn[:len(torn)-1]
	binary.BigEndian.PutUint32(torn[2:6], uint32(len(torn)-6))
	if _, err := DecodeControl(torn); err == nil {
		t.Error("decoded torn revoked list")
	}
}

// FuzzRevocationTLV drives DecodeControl with arbitrary bytes (no
// panics; accepted inputs must re-encode canonically) and with
// composed revocation messages built from fuzzed primitives (lossless
// round trip). When full is set, the composed frame also carries the
// retired full-set marker (element 0x04, empty), which the decoder must
// skip: a frame from a sender that still writes it decodes as the same
// message.
func FuzzRevocationTLV(f *testing.F) {
	f.Add(uint64(1), "issuer", true, []byte{}, uint8(1))
	f.Add(uint64(1<<40), "", false, bytes.Repeat([]byte{0xab}, 64), uint8(3))
	f.Add(^uint64(0), "e0/edge", false, bytes.Repeat([]byte{7}, 31), uint8(200))
	f.Fuzz(func(t *testing.T, version uint64, origin string, full bool, idBytes []byte, rawKind uint8) {
		// Arbitrary-bytes safety: the fuzzed primitives double as a
		// byte soup for the decoder.
		if c, err := DecodeControl(idBytes); err == nil {
			enc, err := EncodeControl(c)
			if err != nil {
				t.Fatalf("re-encode of accepted control failed: %v", err)
			}
			c2, err := DecodeControl(enc)
			if err != nil {
				t.Fatalf("re-decode of canonical control failed: %v", err)
			}
			enc2, err := EncodeControl(c2)
			if err != nil {
				t.Fatalf("second re-encode failed: %v", err)
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatalf("control encoding not canonical:\n first %x\nsecond %x", enc, enc2)
			}
		}

		// Composed round trip: whole 32-byte IDs carved from the fuzzed
		// bytes.
		var ids []core.TagID
		for len(idBytes) >= tagIDSize && len(ids) < 64 {
			var id core.TagID
			copy(id[:], idBytes)
			ids = append(ids, id)
			idBytes = idBytes[tagIDSize:]
		}
		kind := ControlKind(rawKind)
		if kind == 0 {
			kind = CtrlRevoke
		}
		in := &Control{Kind: kind, Version: version, Origin: origin, Revoked: ids}
		enc, err := EncodeControl(in)
		if err != nil {
			t.Fatalf("EncodeControl: %v", err)
		}
		if full {
			enc = closeOuter(append(enc, 0x04, 0), 6)
		}
		got, err := DecodeControl(enc)
		if err != nil {
			t.Fatalf("DecodeControl: %v", err)
		}
		if !reflect.DeepEqual(got, in) {
			t.Fatalf("revocation round trip mutated message:\n got %+v\nwant %+v", got, in)
		}
	})
}

// FuzzControlSync round-trips BF-sync control messages built from
// fuzzed shapes and words, and requires that a decoded advert merges
// into a matching filter without panicking. Every composed frame also
// carries the retired element-count element (0x08) with the fuzzed count,
// which the decoder must skip: a frame from a sender that still writes it
// decodes as the same message. After each merge that applies, no bit
// past m is set and the filter's FPP is (popcount/m)^k, bit for bit.
func FuzzControlSync(f *testing.F) {
	f.Add(uint64(1), uint64(4793), uint32(5), []byte{0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0xff}, uint64(3))
	f.Add(uint64(9), uint64(64), uint32(1), []byte{}, uint64(0))
	f.Add(^uint64(0), uint64(0), uint32(0), bytes.Repeat([]byte{0xee}, 36), ^uint64(0))
	f.Add(uint64(2), uint64(4793), uint32(5), append([]byte{0, 0, 0, 4793 / 64}, bytes.Repeat([]byte{0xff}, 8)...), uint64(1))
	f.Fuzz(func(t *testing.T, version, nbits uint64, hashes uint32, wordBytes []byte, count uint64) {
		var words []bloom.WordDelta
		for len(wordBytes) >= wordDeltaSize && len(words) < 128 {
			words = append(words, bloom.WordDelta{
				Index: binary.BigEndian.Uint32(wordBytes),
				Word:  binary.BigEndian.Uint64(wordBytes[4:]),
			})
			wordBytes = wordBytes[wordDeltaSize:]
		}
		in := &Control{Kind: CtrlBFSync, Version: version, Origin: "peer", Bits: nbits, Hashes: hashes, Words: words}
		enc, err := EncodeControl(in)
		if err != nil {
			t.Fatalf("EncodeControl: %v", err)
		}
		enc = closeOuter(binary.BigEndian.AppendUint64(append(enc, 0x08, 8), count), 6)
		got, err := DecodeControl(enc)
		if err != nil {
			t.Fatalf("DecodeControl: %v", err)
		}
		if !reflect.DeepEqual(got, in) {
			t.Fatalf("sync round trip mutated message:\n got %+v\nwant %+v", got, in)
		}
		// Merging an arbitrary decoded advert must never panic: either
		// the shape mismatches (error) or the merge applies cleanly.
		dst, err := bloom.NewWithShape(4793, 5, 1e-4)
		if err != nil {
			t.Fatal(err)
		}
		dst.Add([]byte("local"))
		for merge := 0; merge < 2; merge++ {
			if dst.MergeWords(got.Bits, got.Hashes, got.Words) != nil {
				break
			}
			ones := 0
			for _, w := range dst.Words() {
				ones += bits.OnesCount64(w.Word)
				if w.Index == 4793/64 && w.Word>>(4793%64) != 0 {
					t.Fatalf("merge %d: bits past m set in the last word %#x", merge, w.Word)
				}
			}
			if want := math.Pow(float64(ones)/4793, 5); dst.FPP() != want {
				t.Fatalf("merge %d: FPP %g, want (popcount/m)^k = %g", merge, dst.FPP(), want)
			}
		}
	})
}
