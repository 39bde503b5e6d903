package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/names"
)

// FuzzTagEncoding exercises the tag codec from both directions:
// DecodeTag must never panic on arbitrary bytes, and anything it accepts
// must be the canonical encoding of its fields byte for byte — the
// cached encoding is the accepted prefix of the input, rebuilding the tag
// from its fields reproduces it, and SigningBytes (a view of the bytes
// that arrived) is the fields' own encoding — so one signed tuple has one
// accepted spelling. A tag built from fuzzed field values must
// round-trip losslessly, including Expiry, which travels as raw
// UnixNano.
func FuzzTagEncoding(f *testing.F) {
	valid := &Tag{
		ProviderKey: names.MustParse("/prov0/KEY"),
		Level:       2,
		ClientKey:   names.MustParse("/u/alice/KEY"),
		AccessPath:  AccessPathOf("ap0"),
		Expiry:      time.Unix(1000, 42),
		Signature:   []byte("sig"),
	}
	f.Add(valid.Encode(), uint16(2), uint64(7), int64(1e18), []byte("sig"))
	f.Add([]byte{}, uint16(0), uint64(0), int64(0), []byte{})
	f.Add([]byte{tagEncodingVersion}, uint16(9), ^uint64(0), int64(-1), bytes.Repeat([]byte{0xAB}, 64))
	f.Add(spellTag(valid, "//prov0/KEY", "/u/alice/KEY/"), uint16(2), uint64(7), int64(0), []byte("sig"))
	f.Fuzz(func(t *testing.T, data []byte, level uint16, ap uint64, nano int64, sig []byte) {
		if dec, err := DecodeTag(data); err == nil {
			enc := dec.Encode()
			if len(enc) > len(data) || !bytes.Equal(enc, data[:len(enc)]) {
				t.Fatal("cached encoding is not the accepted input")
			}
			// Rebuilt from its fields the tag has no cached encoding.
			rebuilt := &Tag{
				ProviderKey: dec.ProviderKey,
				Level:       dec.Level,
				ClientKey:   dec.ClientKey,
				AccessPath:  dec.AccessPath,
				Expiry:      dec.Expiry,
				Signature:   dec.Signature,
			}
			if !bytes.Equal(rebuilt.Encode(), enc) {
				t.Fatalf("accepted %x, its fields encode as %x", enc, rebuilt.Encode())
			}
			signed := dec.SigningBytes()
			if !bytes.Equal(signed, rebuilt.SigningBytes()) || dec.ID() != rebuilt.ID() {
				t.Fatal("SigningBytes of the accepted bytes differ from the fields' encoding")
			}
			if cap(signed) != len(signed) || cap(dec.Signature) != len(dec.Signature) {
				t.Fatal("decoded views are not capped")
			}
		}

		// Constructive round trip from fuzzed field values. Lengths
		// beyond the uint16 wire prefix cannot be represented.
		if len(sig) > 0xFFFF {
			sig = sig[:0xFFFF]
		}
		in := &Tag{
			ProviderKey: names.MustParse("/prov0/KEY"),
			Level:       AccessLevel(level),
			ClientKey:   names.MustParse("/u/alice/KEY"),
			AccessPath:  AccessPath(ap),
			Expiry:      time.Unix(0, nano),
			Signature:   sig,
		}
		out, err := DecodeTag(in.Encode())
		if err != nil {
			t.Fatalf("DecodeTag of encoded tag: %v", err)
		}
		if !out.ProviderKey.Equal(in.ProviderKey) || out.Level != in.Level ||
			!out.ClientKey.Equal(in.ClientKey) || out.AccessPath != in.AccessPath || !bytes.Equal(out.Signature, sig) {
			t.Fatalf("tag round trip mutated fields: %+v != %+v", out, in)
		}
		if out.Expiry.UnixNano() != nano {
			t.Fatalf("expiry UnixNano changed: %d -> %d", nano, out.Expiry.UnixNano())
		}
		if !bytes.Equal(out.CacheKey(), in.CacheKey()) {
			t.Fatalf("cache key changed across round trip")
		}
	})
}

// FuzzContentEncoding exercises the content codec the way the wire does.
// DecodeContent must never panic on arbitrary bytes; what it accepts is
// kept byte for byte (the cached encoding is the accepted prefix of the
// input) and its canonical re-encode decodes to the same fields. The
// decoder reads its names through the intern table, so a fuzzed name is
// also spliced into a well-formed content and decoded twice — the second
// time from the table — and must be judged exactly as names.Parse judges
// it, errors included. Decoded into a target that last held a larger
// content, whose buffer it reuses, the input must read exactly as a fresh
// decode reads it, its views capped as theirs are.
func FuzzContentEncoding(f *testing.F) {
	chunk := publishedChunk(f)
	large, err := DecodeContent(chunk)
	if err != nil {
		f.Fatal(err)
	}
	large.Payload = bytes.Repeat([]byte{0xAB}, 8192)
	largeEnc, err := EncodeContent(&Content{Meta: large.Meta, Payload: large.Payload, Signature: large.Signature})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(chunk, []byte("/prov0/obj/chunk7"))
	f.Add([]byte{}, []byte{})
	f.Add([]byte{contentEncodingVersion}, []byte("/"))
	f.Add(chunk[:len(chunk)/2], []byte("/a//b"))
	f.Add(append(append([]byte(nil), chunk...), 0xEE), []byte("/a/b/"))
	f.Add(chunk, []byte("no-slash"))
	f.Fuzz(func(t *testing.T, data, name []byte) {
		var into Content
		if err := DecodeContentInto(&into, largeEnc); err != nil {
			t.Fatal(err)
		}
		fresh, freshErr := DecodeContent(data)
		intoErr := DecodeContentInto(&into, data)
		if fmt.Sprint(freshErr) != fmt.Sprint(intoErr) {
			t.Fatalf("DecodeContentInto err %v, DecodeContent err %v", intoErr, freshErr)
		}
		if freshErr != nil && (into.Meta.Name.Len() != 0 || into.Payload != nil || into.Signature != nil || len(into.enc) != 0) {
			t.Fatalf("a failed decode left a usable content: %+v", into)
		}
		if freshErr == nil {
			freshEnc, _ := EncodeContent(fresh)
			intoEnc, _ := EncodeContent(&into)
			if !bytes.Equal(intoEnc, freshEnc) || !into.Meta.Name.Equal(fresh.Meta.Name) ||
				into.Meta.Name.String() != fresh.Meta.Name.String() || into.Meta.Level != fresh.Meta.Level ||
				!into.Meta.ProviderKey.Equal(fresh.Meta.ProviderKey) ||
				!bytes.Equal(into.Payload, fresh.Payload) || !bytes.Equal(into.Signature, fresh.Signature) {
				t.Fatalf("decoded into a reused target: %+v, fresh: %+v", into, fresh)
			}
			if cap(into.Payload) != len(into.Payload) || cap(into.Signature) != len(into.Signature) {
				t.Fatal("views decoded into a reused target are not capped")
			}
		}

		if dec, err := DecodeContent(data); err == nil {
			enc, err := EncodeContent(dec)
			if err != nil {
				t.Fatalf("encode of accepted content: %v", err)
			}
			if len(enc) > len(data) || !bytes.Equal(enc, data[:len(enc)]) {
				t.Fatal("cached encoding is not the accepted input")
			}
			if cap(dec.Payload) != len(dec.Payload) || cap(dec.Signature) != len(dec.Signature) {
				t.Fatal("decoded views are not capped")
			}
			// Rebuilt from its fields the content has no cached encoding.
			canon, err := EncodeContent(&Content{Meta: dec.Meta, Payload: dec.Payload, Signature: dec.Signature})
			if err != nil {
				t.Fatalf("canonical encode of accepted content: %v", err)
			}
			re, err := DecodeContent(canon)
			if err != nil {
				t.Fatalf("re-decode of accepted content: %v", err)
			}
			if !re.Meta.Name.Equal(dec.Meta.Name) || re.Meta.Level != dec.Meta.Level ||
				!re.Meta.ProviderKey.Equal(dec.Meta.ProviderKey) ||
				!bytes.Equal(re.Payload, dec.Payload) || !bytes.Equal(re.Signature, dec.Signature) {
				t.Fatalf("content re-encode mutated fields: %+v != %+v", re, dec)
			}
		}

		if len(name) > 0xFFFF {
			name = name[:0xFFFF]
		}
		spliced := []byte{contentEncodingVersion}
		spliced = appendLenPrefixed(spliced, name)
		spliced = append(spliced, 0, 2)
		spliced = appendLenPrefixed(spliced, []byte("/prov0/KEY/1"))
		spliced = appendLenPrefixed(spliced, []byte("payload"))
		spliced = appendLenPrefixed(spliced, []byte("sig"))
		want, wantErr := names.Parse(string(name))
		for pass := 0; pass < 2; pass++ {
			got, err := DecodeContent(spliced)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("pass %d: name %q: DecodeContent err %v, names.Parse err %v", pass, name, err, wantErr)
			}
			if err != nil {
				if !strings.HasSuffix(err.Error(), wantErr.Error()) {
					t.Fatalf("pass %d: name %q: error %q does not carry %q", pass, name, err, wantErr)
				}
				continue
			}
			if !got.Meta.Name.Equal(want) || got.Meta.Name.Len() != want.Len() || got.Meta.Name.String() != want.String() {
				t.Fatalf("pass %d: name %q decoded as %s, names.Parse gives %s", pass, name, got.Meta.Name, want)
			}
		}
	})
}
