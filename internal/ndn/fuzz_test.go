package ndn

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/pki"
)

// Wire-facing decoders process bytes from untrusted peers; none may
// panic on arbitrary input, and anything they accept must re-encode to
// the identical wire form. Native fuzz targets replace the earlier
// testing/quick property checks; their seed corpus lives under
// testdata/fuzz/ and `make fuzz-smoke` gives each target a 30s budget.

// fuzzFixtures builds the signed material packet fuzzing composes with,
// once per process (fuzz workers re-enter the target concurrently).
var fuzzFixtures = sync.OnceValues(func() (*core.Provider, *core.Tag) {
	rng := rand.New(rand.NewSource(1))
	signer, err := pki.GenerateFast(rng, names.MustParse("/prov0/KEY/1"))
	if err != nil {
		panic(err)
	}
	prov, err := core.NewProvider(names.MustParse("/prov0"), signer, time.Minute, rng)
	if err != nil {
		panic(err)
	}
	tag, err := core.IssueTag(signer, names.MustParse("/u/alice/KEY/1"), 2, core.AccessPathOf("ap0"), time.Unix(1<<32, 0))
	if err != nil {
		panic(err)
	}
	tag.Encode()
	return prov, tag
})

// FuzzTLVDecode drives both wire decoders with arbitrary bytes: they
// must never panic, and any input they accept must survive a
// re-encode/re-decode cycle byte-identically (the encoders are
// canonical: unknown TLV elements are dropped on first decode). Their
// Into forms, decoding into a target that last held a fully populated
// packet, must report the same error and, on success, the same packet.
func FuzzTLVDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x05, 0x03, 0x07, 0x01, 'x'})
	_, tag := fuzzFixtures()
	if enc, err := EncodeInterest(&Interest{Name: names.MustParse("/prov0/obj/c0"), Kind: KindContent, Nonce: 7, Tag: tag, Flag: 0.25}); err == nil {
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		requireSameInterest(t, data)
		requireSameData(t, data)
		if i, err := DecodeInterest(data); err == nil {
			enc, err := EncodeInterest(i)
			if err != nil {
				t.Fatalf("re-encode of accepted Interest failed: %v", err)
			}
			i2, err := DecodeInterest(enc)
			if err != nil {
				t.Fatalf("re-decode of canonical Interest failed: %v", err)
			}
			enc2, err := EncodeInterest(i2)
			if err != nil {
				t.Fatalf("second re-encode failed: %v", err)
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatalf("Interest encoding not canonical:\n first %x\nsecond %x", enc, enc2)
			}
		}
		if d, err := DecodeData(data); err == nil {
			enc, err := EncodeData(d)
			if err != nil {
				t.Fatalf("re-encode of accepted Data failed: %v", err)
			}
			d2, err := DecodeData(enc)
			if err != nil {
				t.Fatalf("re-decode of canonical Data failed: %v", err)
			}
			enc2, err := EncodeData(d2)
			if err != nil {
				t.Fatalf("second re-encode failed: %v", err)
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatalf("Data encoding not canonical:\n first %x\nsecond %x", enc, enc2)
			}
		}
	})
}

// fuzzName builds a valid 1-5 component name under /prov0 from
// arbitrary fuzz input.
func fuzzName(raw string) names.Name {
	parts := []string{"prov0"}
	for _, c := range strings.Split(raw, "/") {
		if len(parts) == 5 {
			break
		}
		var clean []rune
		for _, r := range c {
			if r > 0x20 && r < 0x7f && r != '/' && len(clean) < 20 {
				clean = append(clean, r)
			}
		}
		if len(clean) == 0 {
			continue
		}
		parts = append(parts, string(clean))
	}
	return names.MustNew(parts...)
}

// FuzzPacketRoundTrip builds Interest and Data packets from fuzzed
// primitives — composed with real signed tags and published content —
// and requires a lossless encode/decode round trip, into a fresh packet
// and into a target that last held a fully populated one alike.
func FuzzPacketRoundTrip(f *testing.F) {
	f.Add(uint64(42), math.Float64bits(0.25), uint64(7), "obj/c0", []byte("payload"), uint8(2), false)
	f.Add(uint64(0), uint64(0), uint64(0), "", []byte{}, uint8(0), true)
	f.Add(uint64(1), math.Float64bits(math.Inf(1)), ^uint64(0), "a/b/c/d/e/f", []byte{0, 0xff}, uint8(9), false)
	// NACK seeds: the level byte doubles as the NackReason wire code, so
	// these cover an Overload shed (9), a revocation (8), and an
	// out-of-table code that must degrade to the generic reason.
	f.Add(uint64(7), uint64(0), uint64(3), "obj/c1", []byte("x"), uint8(9), true)
	f.Add(uint64(8), uint64(0), uint64(4), "obj/c2", []byte("y"), uint8(8), true)
	f.Add(uint64(9), uint64(0), uint64(5), "obj/c3", []byte("z"), uint8(200), true)
	f.Fuzz(func(t *testing.T, nonce, flagBits, ap uint64, rawName string, payload []byte, level uint8, nack bool) {
		prov, tag := fuzzFixtures()
		name := fuzzName(rawName)
		flag := math.Float64frombits(flagBits)

		in := &Interest{Name: name, Kind: KindContent, Nonce: nonce, Tag: tag, Flag: flag, AccessPath: core.AccessPath(ap)}
		enc, err := EncodeInterest(in)
		if err != nil {
			t.Fatalf("EncodeInterest: %v", err)
		}
		got, err := DecodeInterest(enc)
		if err != nil {
			t.Fatalf("DecodeInterest: %v", err)
		}
		if !got.Name.Equal(in.Name) || got.Kind != in.Kind || got.Nonce != in.Nonce || got.AccessPath != in.AccessPath {
			t.Fatalf("Interest round trip mutated fields: %+v != %+v", got, in)
		}
		checkFlag(t, flag, got.Flag)
		if got.Tag == nil || !bytes.Equal(got.Tag.CacheKey(), tag.CacheKey()) {
			t.Fatalf("Interest round trip mutated tag")
		}
		requireSameInterest(t, enc)

		content, err := prov.Publish(name, core.AccessLevel(level%3), payload)
		if err != nil {
			t.Fatalf("Publish: %v", err)
		}
		d := &Data{Name: name, Content: content, Tag: tag, Flag: flag, Nack: nack}
		if nack {
			// Reuse the level byte as the NackReason wire code: the
			// canonical sentinel for any code (known or not) must survive
			// the round trip. ReasonFromCode is total, so this also walks
			// unknown codes through the generic-reason path.
			d.NackReason = core.ReasonFromCode(level)
		}
		dEnc, err := EncodeData(d)
		if err != nil {
			t.Fatalf("EncodeData: %v", err)
		}
		dGot, err := DecodeData(dEnc)
		if err != nil {
			t.Fatalf("DecodeData: %v", err)
		}
		if !dGot.Name.Equal(d.Name) || dGot.Nack != d.Nack {
			t.Fatalf("Data round trip mutated fields: %+v != %+v", dGot, d)
		}
		if nack && !errors.Is(dGot.NackReason, d.NackReason) {
			t.Fatalf("NackReason mutated: %v -> %v", d.NackReason, dGot.NackReason)
		}
		checkFlag(t, flag, dGot.Flag)
		// Non-Public payloads are encrypted at Publish; compare wire
		// bytes against the published (possibly ciphertext) payload.
		if dGot.Content == nil || !bytes.Equal(dGot.Content.Payload, content.Payload) || dGot.Content.Meta.Level != core.AccessLevel(level%3) {
			t.Fatalf("Data round trip mutated content")
		}
		if dGot.Tag == nil || !bytes.Equal(dGot.Tag.CacheKey(), tag.CacheKey()) {
			t.Fatalf("Data round trip mutated tag")
		}
		requireSameData(t, dEnc)
	})
}

// checkFlag compares a round-tripped collaboration flag bit-for-bit,
// except that a zero flag (either sign) is omitted on the wire and
// decodes as +0.
func checkFlag(t *testing.T, want, got float64) {
	t.Helper()
	if want == 0 {
		if got != 0 {
			t.Fatalf("zero flag decoded as %v", got)
		}
		return
	}
	if math.Float64bits(want) != math.Float64bits(got) {
		t.Fatalf("flag bits changed: %x -> %x", math.Float64bits(want), math.Float64bits(got))
	}
}

func TestCorruptedValidPacketsFailCleanly(t *testing.T) {
	tag, content, reg, resp := tlvFixtures(t)
	iEnc, err := EncodeInterest(&Interest{
		Name: names.MustParse("/prov0/obj/c0"), Kind: KindContent, Nonce: 7,
		Tag: tag, Flag: 0.5, Registration: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	dEnc, err := EncodeData(&Data{
		Name: names.MustParse("/prov0/obj/c0"), Content: content, Tag: tag,
		Registration: resp,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		corrupt := func(src []byte) []byte {
			out := append([]byte(nil), src...)
			flips := 1 + rng.Intn(4)
			for f := 0; f < flips; f++ {
				out[rng.Intn(len(out))] ^= byte(1 + rng.Intn(255))
			}
			return out
		}
		// Either outcome (error or a decoded-but-different packet) is
		// acceptable; a panic is not.
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("decode panicked on corrupted input: %v", r)
				}
			}()
			_, _ = DecodeInterest(corrupt(iEnc))
			_, _ = DecodeData(corrupt(dEnc))
		}()
	}
}
