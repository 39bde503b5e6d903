package core

import (
	"bytes"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/pki"
)

func TestContentEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	signer, err := pki.GenerateFast(rng, names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	prov, err := NewProvider(names.MustParse("/prov0"), signer, time.Minute, rng)
	if err != nil {
		t.Fatal(err)
	}
	content, err := prov.Publish(names.MustParse("/prov0/obj/c0"), 2, []byte("the payload"))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeContent(content)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeContent(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Meta.Name.Equal(content.Meta.Name) || back.Meta.Level != content.Meta.Level ||
		!back.Meta.ProviderKey.Equal(content.Meta.ProviderKey) {
		t.Errorf("meta mismatch: %+v vs %+v", back.Meta, content.Meta)
	}
	if !bytes.Equal(back.Payload, content.Payload) || !bytes.Equal(back.Signature, content.Signature) {
		t.Error("payload/signature mismatch")
	}
	// The decoded content still verifies: the signature survives the
	// round trip bit-exactly.
	reg := pki.NewRegistry()
	if err := reg.Register(signer.Locator(), signer.Public()); err != nil {
		t.Fatal(err)
	}
	if err := VerifyContent(reg, back); err != nil {
		t.Errorf("decoded content failed verification: %v", err)
	}
}

func TestContentDecodeTruncation(t *testing.T) {
	content := &Content{
		Meta:      ContentMeta{Name: names.MustParse("/p/o/c"), Level: 1, ProviderKey: names.MustParse("/p/KEY/1")},
		Payload:   []byte("xyz"),
		Signature: []byte{1, 2, 3, 4},
	}
	enc, err := EncodeContent(content)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(enc); cut += 3 {
		if _, err := DecodeContent(enc[:cut]); err == nil {
			t.Fatalf("truncated content at %d accepted", cut)
		}
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 99
	if _, err := DecodeContent(bad); err == nil {
		t.Error("unknown content version accepted")
	}
}

func TestRegistrationRequestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	signer, err := pki.GenerateFast(rng, names.MustParse("/u/alice/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(signer, rng)
	if err != nil {
		t.Fatal(err)
	}
	req, err := cl.NewRegistrationRequest(AccessPathOf("ap0"))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeRegistrationRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeRegistrationRequest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !back.ClientKey.Equal(req.ClientKey) || back.AccessPath != req.AccessPath ||
		back.Nonce != req.Nonce || !bytes.Equal(back.Credential, req.Credential) {
		t.Error("registration request fields mismatch")
	}
	if back.KEMPublic == nil || !bytes.Equal(back.KEMPublic.Bytes(), req.KEMPublic.Bytes()) {
		t.Error("KEM key mismatch")
	}
	// The decoded request still passes credential verification.
	if err := signer.Public().Verify(back.SigningBytes(), back.Credential); err != nil {
		t.Errorf("decoded credential invalid: %v", err)
	}
}

func TestRegistrationRequestWithoutKEM(t *testing.T) {
	req := &RegistrationRequest{
		ClientKey:  names.MustParse("/u/bob/KEY/1"),
		AccessPath: 42,
		Nonce:      7,
		Credential: []byte{9, 9},
	}
	enc, err := EncodeRegistrationRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeRegistrationRequest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back.KEMPublic != nil {
		t.Error("phantom KEM key decoded")
	}
	for cut := 0; cut < len(enc); cut += 3 {
		if _, err := DecodeRegistrationRequest(enc[:cut]); err == nil {
			t.Fatalf("truncated request at %d accepted", cut)
		}
	}
}

func TestRegistrationResponseRoundTrip(t *testing.T) {
	prov := newTestSigner(t, 3, "/prov0/KEY/1")
	tag, err := IssueTag(prov, names.MustParse("/u/alice/KEY/1"), 2, 5, testTime(100))
	if err != nil {
		t.Fatal(err)
	}
	resp := &RegistrationResponse{Tag: tag, WrappedContentKey: []byte{1, 2, 3, 4, 5}}
	enc, err := EncodeRegistrationResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeRegistrationResponse(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Tag.Level != tag.Level || !back.Tag.ClientKey.Equal(tag.ClientKey) ||
		!bytes.Equal(back.Tag.Signature, tag.Signature) {
		t.Error("tag mismatch after round trip")
	}
	if !bytes.Equal(back.WrappedContentKey, resp.WrappedContentKey) {
		t.Error("wrapped key mismatch")
	}
	// Without a tag the encoder refuses.
	if _, err := EncodeRegistrationResponse(&RegistrationResponse{}); err == nil {
		t.Error("tagless response encoded")
	}
	// Empty wrapped key decodes as nil.
	enc2, err := EncodeRegistrationResponse(&RegistrationResponse{Tag: tag})
	if err != nil {
		t.Fatal(err)
	}
	back2, err := DecodeRegistrationResponse(enc2)
	if err != nil {
		t.Fatal(err)
	}
	if back2.WrappedContentKey != nil {
		t.Error("phantom wrapped key")
	}
}

func TestPropertyContentRoundTrip(t *testing.T) {
	f := func(payload []byte, level uint16, sig []byte) bool {
		if len(payload) > 60000 || len(sig) > 60000 {
			return true
		}
		c := &Content{
			Meta:      ContentMeta{Name: names.MustParse("/p/o/c"), Level: AccessLevel(level), ProviderKey: names.MustParse("/p/KEY/1")},
			Payload:   payload,
			Signature: sig,
		}
		enc, err := EncodeContent(c)
		if err != nil {
			return false
		}
		back, err := DecodeContent(enc)
		if err != nil {
			return false
		}
		return bytes.Equal(back.Payload, payload) && back.Meta.Level == AccessLevel(level) &&
			bytes.Equal(back.Signature, sig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDecodersNeverPanic(t *testing.T) {
	// Tag/content/registration decoders face wire input; arbitrary
	// bytes must produce errors, never panics.
	f := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = DecodeTag(data)
		_, _ = DecodeContent(data)
		_, _ = DecodeRegistrationRequest(data)
		_, _ = DecodeRegistrationResponse(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// publishedChunk returns the encoding of one signed, encrypted chunk.
func publishedChunk(t testing.TB) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	signer, err := pki.GenerateFast(rng, names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	prov, err := NewProvider(names.MustParse("/prov0"), signer, time.Minute, rng)
	if err != nil {
		t.Fatal(err)
	}
	content, err := prov.Publish(names.MustParse("/prov0/obj/chunk7"), 2, bytes.Repeat([]byte{0xC7}, 1024))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeContent(content)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestDecodeContentAllocs holds the decoder to what it keeps: with both
// names in the intern table, one copy of the encoding and the struct.
func TestDecodeContentAllocs(t *testing.T) {
	enc := publishedChunk(t)
	if _, err := DecodeContent(enc); err != nil { // warm the intern table
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := DecodeContent(enc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("DecodeContent allocates %.1f/op on a warm table, want <= 2", allocs)
	}
	var into Content
	allocs = testing.AllocsPerRun(1000, func() {
		if err := DecodeContentInto(&into, enc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("DecodeContentInto a target that held the content allocates %.1f/op, want 0", allocs)
	}
}

// TestCopyContent: a copy holds the source's encoding in a buffer of its
// own — a content built locally is encoded on the way in — with capped
// views into it, shares no byte with the source, and reuses its buffer.
func TestCopyContent(t *testing.T) {
	enc := publishedChunk(t)
	decoded, err := DecodeContent(enc)
	if err != nil {
		t.Fatal(err)
	}
	local := &Content{Meta: decoded.Meta, Payload: bytes.Clone(decoded.Payload), Signature: bytes.Clone(decoded.Signature)}
	for _, src := range []*Content{decoded, local} {
		var dst Content
		CopyContent(&dst, src)
		got, err := EncodeContent(&dst)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, enc) || !dst.Meta.Name.Equal(src.Meta.Name) || dst.Meta.Level != src.Meta.Level ||
			!bytes.Equal(dst.Payload, src.Payload) || !bytes.Equal(dst.Signature, src.Signature) {
			t.Fatalf("copy of %s differs from its source", src.Meta.Name)
		}
		if cap(dst.Payload) != len(dst.Payload) || cap(dst.Signature) != len(dst.Signature) {
			t.Fatal("copied views are not capped")
		}
		src.Payload[0] ^= 0xFF
		if dst.Payload[0] == src.Payload[0] {
			t.Fatal("copy shares its payload with the source")
		}
		src.Payload[0] ^= 0xFF
		if a := testing.AllocsPerRun(100, func() { CopyContent(&dst, src) }); a != 0 {
			t.Errorf("a copy into a Content that held one as large allocates %.1f/op, want 0", a)
		}
	}
	var reset Content
	CopyContent(&reset, decoded)
	reset.Reset()
	if got, err := EncodeContent(&reset); err != nil || len(got) == len(enc) {
		t.Errorf("a reset Content still encodes as its old chunk: %d bytes, %v", len(got), err)
	}
}

// TestDecodeContentViews pins what sharing one copy must not change: the
// decoded fields are views of a private copy (not of the input), an
// append through Payload cannot reach Signature, and the cached encoding
// is the accepted input byte for byte, trailing bytes excluded.
func TestDecodeContentViews(t *testing.T) {
	enc := publishedChunk(t)
	in := append(append([]byte(nil), enc...), 0xEE, 0xEE) // trailing garbage is not part of the content
	c, err := DecodeContent(in)
	if err != nil {
		t.Fatal(err)
	}
	if cap(c.Payload) != len(c.Payload) || cap(c.Signature) != len(c.Signature) {
		t.Fatalf("views are not capped: payload %d/%d, signature %d/%d",
			len(c.Payload), cap(c.Payload), len(c.Signature), cap(c.Signature))
	}
	sig := append([]byte(nil), c.Signature...)
	_ = append(c.Payload, 0xFF, 0xFF, 0xFF, 0xFF)
	if !bytes.Equal(c.Signature, sig) {
		t.Error("append to Payload wrote into Signature")
	}
	for i := range in {
		in[i] = 0 // the frame buffer goes back to its pool
	}
	again, err := EncodeContent(c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, enc) {
		t.Error("EncodeContent(DecodeContent(b)) differs from b")
	}
	if !bytes.Equal(c.Signature, sig) {
		t.Error("decoded content aliases its input")
	}
}

// TestDecodeContentConcurrent decodes one content and a spread of names
// from several goroutines at once: the intern table is process-wide, so
// the race detector sees every decoder share it.
func TestDecodeContentConcurrent(t *testing.T) {
	var encs [][]byte
	for i := 0; i < 64; i++ {
		enc, err := EncodeContent(&Content{
			Meta:      ContentMeta{Name: names.MustNew("p", "o", "c"+strconv.Itoa(i)), Level: 1, ProviderKey: names.MustParse("/p/KEY/1")},
			Payload:   []byte("xyz"),
			Signature: []byte{1, 2, 3, 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		encs = append(encs, enc)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				for i, enc := range encs {
					c, err := DecodeContent(enc)
					if err != nil {
						t.Error(err)
						return
					}
					if want := "/p/o/c" + strconv.Itoa(i); c.Meta.Name.String() != want {
						t.Errorf("decoded name %s, want %s", c.Meta.Name, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
