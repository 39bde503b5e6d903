package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/pki"
)

// newTestSigner builds a deterministic fast signer for a locator.
func newTestSigner(t *testing.T, seed int64, locator string) *pki.FastKeyPair {
	t.Helper()
	kp, err := pki.GenerateFast(rand.New(rand.NewSource(seed)), names.MustParse(locator))
	if err != nil {
		t.Fatal(err)
	}
	return kp
}

// newTestRegistry registers the given signers.
func newTestRegistry(t *testing.T, signers ...pki.Signer) *pki.Registry {
	t.Helper()
	reg := pki.NewRegistry()
	for _, s := range signers {
		if err := reg.Register(s.Locator(), s.Public()); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

func testTime(sec int64) time.Time { return time.Unix(sec, 0) }

func TestIssueAndVerifyTag(t *testing.T) {
	prov := newTestSigner(t, 1, "/prov0/KEY/1")
	reg := newTestRegistry(t, prov)
	tag, err := IssueTag(prov, names.MustParse("/users/alice/KEY/1"), 3, AccessPathOf("ap7"), testTime(100))
	if err != nil {
		t.Fatal(err)
	}
	v := NewTagValidator(reg)
	if err := v.Validate(tag, testTime(50)); err != nil {
		t.Errorf("fresh tag invalid: %v", err)
	}
	if v.Verifications() != 1 {
		t.Errorf("verifications = %d, want 1", v.Verifications())
	}
}

func TestTagEncodeDecodeRoundTrip(t *testing.T) {
	prov := newTestSigner(t, 2, "/prov0/KEY/1")
	tag, err := IssueTag(prov, names.MustParse("/u/bob/KEY/1"), 7, AccessPathOf("x", "y"), testTime(12345))
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeTag(tag.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !back.ProviderKey.Equal(tag.ProviderKey) || back.Level != tag.Level ||
		!back.ClientKey.Equal(tag.ClientKey) || back.AccessPath != tag.AccessPath ||
		!back.Expiry.Equal(tag.Expiry) {
		t.Errorf("decoded tag differs: %+v vs %+v", back, tag)
	}
	// The decoded tag must still verify — the signature survives.
	reg := newTestRegistry(t, prov)
	if err := NewTagValidator(reg).Validate(back, testTime(1)); err != nil {
		t.Errorf("decoded tag invalid: %v", err)
	}
}

func TestTagSize(t *testing.T) {
	// Paper §4.A: "a tag [is] a couple hundred bytes."
	prov := newTestSigner(t, 3, "/provider-with-longer-name/KEY/v1")
	tag, err := IssueTag(prov, names.MustParse("/users/some-client/KEY/v1"), 2, 0, testTime(1))
	if err != nil {
		t.Fatal(err)
	}
	if tag.Size() < 50 || tag.Size() > 400 {
		t.Errorf("tag size %d outside the couple-hundred-bytes envelope", tag.Size())
	}
}

func TestDecodeTagErrors(t *testing.T) {
	prov := newTestSigner(t, 4, "/p/KEY/1")
	tag, err := IssueTag(prov, names.MustParse("/u/KEY/1"), 1, 0, testTime(1))
	if err != nil {
		t.Fatal(err)
	}
	enc := tag.Encode()
	for cut := 0; cut < len(enc); cut += 7 {
		if _, err := DecodeTag(enc[:cut]); !errors.Is(err, ErrTagTruncated) {
			t.Fatalf("DecodeTag(enc[:%d]) err = %v, want ErrTagTruncated", cut, err)
		}
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 99 // unknown version
	if _, err := DecodeTag(bad); !errors.Is(err, ErrTagVersion) {
		t.Errorf("unknown version err = %v", err)
	}
}

func TestDecodeTagBadNames(t *testing.T) {
	// Hand-craft an encoding whose provider key is not a valid name.
	tag := &Tag{
		ProviderKey: names.MustParse("/p/KEY/1"),
		ClientKey:   names.MustParse("/u/KEY/1"),
		Expiry:      testTime(5),
		Signature:   []byte{1, 2, 3},
	}
	enc := append([]byte(nil), tag.Encode()...)
	// Corrupt the first byte of the provider key string (offset:
	// version(1) + len(2)).
	enc[3] = 'x' // name no longer starts with '/'
	if _, err := DecodeTag(enc); err == nil {
		t.Error("malformed provider key accepted")
	}
}

func TestTamperedTagFieldsFailValidation(t *testing.T) {
	prov := newTestSigner(t, 5, "/prov0/KEY/1")
	reg := newTestRegistry(t, prov)
	v := NewTagValidator(reg)
	now := testTime(10)

	mutations := map[string]func(*Tag){
		"level":      func(tg *Tag) { tg.Level = 99 },
		"clientKey":  func(tg *Tag) { tg.ClientKey = names.MustParse("/u/mallory/KEY/1") },
		"accessPath": func(tg *Tag) { tg.AccessPath++ },
		"expiry":     func(tg *Tag) { tg.Expiry = tg.Expiry.Add(time.Hour) },
		"signature":  func(tg *Tag) { tg.Signature[0] ^= 0xff },
	}
	for name, mutate := range mutations {
		tag, err := IssueTag(prov, names.MustParse("/u/alice/KEY/1"), 3, 42, testTime(100))
		if err != nil {
			t.Fatal(err)
		}
		mutate(tag)
		if err := v.Validate(tag, now); !errors.Is(err, ErrTagForged) {
			t.Errorf("mutation %q: err = %v, want ErrTagForged", name, err)
		}
	}
}

func TestExpiredTagFailsValidation(t *testing.T) {
	prov := newTestSigner(t, 6, "/p/KEY/1")
	reg := newTestRegistry(t, prov)
	tag, err := IssueTag(prov, names.MustParse("/u/KEY/1"), 1, 0, testTime(100))
	if err != nil {
		t.Fatal(err)
	}
	v := NewTagValidator(reg)
	if err := v.Validate(tag, testTime(101)); !errors.Is(err, ErrTagExpired) {
		t.Errorf("expired tag err = %v", err)
	}
	// Expiry short-circuits before the expensive signature verification.
	if v.Verifications() != 0 {
		t.Errorf("expired tag triggered %d verifications; pre-check should prevent it", v.Verifications())
	}
}

func TestNilTagValidation(t *testing.T) {
	v := NewTagValidator(newTestRegistry(t))
	if err := v.Validate(nil, testTime(1)); !errors.Is(err, ErrNoTag) {
		t.Errorf("nil tag err = %v", err)
	}
}

func TestFakeTagFromUnknownProvider(t *testing.T) {
	// Threat (b): tag signed by a provider routers do not trust.
	rogue := newTestSigner(t, 7, "/rogue/KEY/1")
	tag, err := IssueTag(rogue, names.MustParse("/u/KEY/1"), 1, 0, testTime(100))
	if err != nil {
		t.Fatal(err)
	}
	v := NewTagValidator(newTestRegistry(t)) // empty registry
	if err := v.Validate(tag, testTime(1)); !errors.Is(err, ErrTagForged) {
		t.Errorf("unknown-provider tag err = %v", err)
	}
}

func TestMaliciousTagClaimingLegitimateKey(t *testing.T) {
	// Paper §6.B: a malicious provider signs a tag that names a
	// legitimate provider's key locator. Signature verification against
	// the legitimate key must fail.
	legit := newTestSigner(t, 8, "/prov0/KEY/1")
	mal := newTestSigner(t, 9, "/prov0-mal/KEY/1")
	reg := newTestRegistry(t, legit)

	fake := &Tag{
		ProviderKey: legit.Locator(), // claims the legit key
		Level:       5,
		ClientKey:   names.MustParse("/u/KEY/1"),
		Expiry:      testTime(100),
	}
	sig, err := mal.Sign(fake.SigningBytes())
	if err != nil {
		t.Fatal(err)
	}
	fake.Signature = sig
	if err := NewTagValidator(reg).Validate(fake, testTime(1)); !errors.Is(err, ErrTagForged) {
		t.Errorf("malicious tag err = %v", err)
	}
}

func TestAccessLevelSatisfies(t *testing.T) {
	cases := []struct {
		tag, content AccessLevel
		want         bool
	}{
		{0, 0, true},
		{5, 0, true},
		{5, 5, true},
		{5, 3, true},
		{3, 5, false},
		{0, 1, false},
	}
	for _, tc := range cases {
		if got := tc.tag.Satisfies(tc.content); got != tc.want {
			t.Errorf("Level %d satisfies %d = %v, want %v", tc.tag, tc.content, got, tc.want)
		}
	}
}

func TestEncodeIsCachedAndStable(t *testing.T) {
	prov := newTestSigner(t, 10, "/p/KEY/1")
	tag, err := IssueTag(prov, names.MustParse("/u/KEY/1"), 1, 0, testTime(1))
	if err != nil {
		t.Fatal(err)
	}
	a := tag.Encode()
	b := tag.Encode()
	if &a[0] != &b[0] {
		t.Error("Encode should cache and return the same backing array")
	}
	if string(tag.CacheKey()) != string(a) {
		t.Error("CacheKey should equal Encode")
	}
}

func TestPropertyTagRoundTrip(t *testing.T) {
	prov := newTestSigner(t, 11, "/p/KEY/1")
	f := func(level uint16, ap uint64, expiry uint32, clientID uint16) bool {
		client := names.MustParse("/u").MustAppend("c"+itoa(uint64(clientID)), "KEY", "1")
		tag, err := IssueTag(prov, client, AccessLevel(level), AccessPath(ap), testTime(int64(expiry)))
		if err != nil {
			return false
		}
		back, err := DecodeTag(tag.Encode())
		if err != nil {
			return false
		}
		return back.Level == tag.Level && back.AccessPath == tag.AccessPath &&
			back.Expiry.Equal(tag.Expiry) && back.ClientKey.Equal(tag.ClientKey) &&
			string(back.Signature) == string(tag.Signature)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// respellings returns n distinct non-canonical spellings of a name —
// extra leading and trailing slashes — each of which names.Parse reads
// as the same name.
func respellings(canon string, n int) []string {
	out := make([]string, 0, n)
	for k := 1; len(out) < n; k++ { // k = 0 is the canonical spelling
		out = append(out, strings.Repeat("/", k%10)+canon+strings.Repeat("/", k/10))
	}
	return out
}

// spellTag is t's wire encoding with its key locators spelled prov and
// cli, under t's own signature.
func spellTag(t *Tag, prov, cli string) []byte {
	b := []byte{tagEncodingVersion}
	b = appendLenPrefixed(b, []byte(prov))
	b = binary.BigEndian.AppendUint16(b, uint16(t.Level))
	b = appendLenPrefixed(b, []byte(cli))
	b = binary.BigEndian.AppendUint64(b, uint64(t.AccessPath))
	b = binary.BigEndian.AppendUint64(b, uint64(t.Expiry.UnixNano()))
	return appendLenPrefixed(b, t.Signature)
}

// TestRespelledLocatorsBuyNoCacheKey: names.Parse reads "//p/KEY/1" and
// "/p/KEY/1/" as "/p/KEY/1", so a tag's locators have many spellings. A
// respelled genuine tag must be refused at decode or fail validation as
// forged: one signature never verifies under a second CacheKey (each of
// which would cost a verification and a Bloom-filter insertion).
func TestRespelledLocatorsBuyNoCacheKey(t *testing.T) {
	prov := newTestSigner(t, 11, "/prov0/KEY/1")
	v := NewTagValidator(newTestRegistry(t, prov))
	tag, err := IssueTag(prov, names.MustParse("/users/alice/KEY/1"), 3, AccessPathOf("ap"), testTime(100))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(spellTag(tag, tag.ProviderKey.String(), tag.ClientKey.String()), tag.Encode()) {
		t.Fatal("spellTag does not reproduce the canonical encoding")
	}
	verifiable := map[string]bool{string(tag.CacheKey()): true}
	try := func(enc []byte) {
		t.Helper()
		dec, err := DecodeTag(enc)
		if err != nil {
			if !errors.Is(err, ErrTagSpelling) {
				t.Errorf("respelled tag refused with %v, want ErrTagSpelling", err)
			}
			return
		}
		if err := v.Validate(dec, testTime(50)); err == nil {
			verifiable[string(dec.CacheKey())] = true
		} else if !errors.Is(err, ErrTagForged) {
			t.Errorf("respelled tag fails validation with %v, want ErrTagForged", err)
		}
	}
	for _, s := range respellings(tag.ProviderKey.String(), 50) {
		try(spellTag(tag, s, tag.ClientKey.String()))
	}
	for _, s := range respellings(tag.ClientKey.String(), 50) {
		try(spellTag(tag, tag.ProviderKey.String(), s))
	}
	if len(verifiable) != 1 {
		t.Errorf("one signed tuple verifies under %d cache keys, want 1", len(verifiable))
	}
}

// TestDecodedTagViews pins what verifying the arrived bytes must keep: a
// decoded tag's SigningBytes are the canonical encoding of its fields and
// its ID their digest, and neither SigningBytes nor Signature can be
// appended to in place.
func TestDecodedTagViews(t *testing.T) {
	prov := newTestSigner(t, 12, "/prov0/KEY/1")
	tag, err := IssueTag(prov, names.MustParse("/users/bob/KEY/1"), 2, AccessPathOf("ap"), testTime(100))
	if err != nil {
		t.Fatal(err)
	}
	in := append(append([]byte(nil), tag.Encode()...), 0xEE) // trailing bytes are not the tag's
	dec, err := DecodeTag(in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.SigningBytes(), tag.SigningBytes()) || dec.ID() != tag.ID() {
		t.Error("a decoded tag signs, or is identified by, other bytes than its fields' encoding")
	}
	if !bytes.Equal(dec.Encode(), tag.Encode()) || dec.Digest() != tag.Digest() {
		t.Error("a decoded tag's encoding is not the accepted input")
	}
	sb := dec.SigningBytes()
	if cap(sb) != len(sb) || cap(dec.Signature) != len(dec.Signature) {
		t.Error("decoded views are not capped")
	}
	in[len(in)-2] ^= 0xFF // the caller may reuse its buffer
	if !bytes.Equal(dec.Signature, tag.Signature) {
		t.Error("a decoded tag aliases its input")
	}
}

// TestSigningBytesAllocs: a decoded tag's SigningBytes and ID are views
// and caches of the bytes that arrived, so the verification behind every
// Bloom-filter miss re-encodes nothing.
func TestSigningBytesAllocs(t *testing.T) {
	prov := newTestSigner(t, 13, "/prov0/KEY/1")
	tag, err := IssueTag(prov, names.MustParse("/users/carol/KEY/1"), 2, 0, testTime(100))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeTag(tag.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		dec.SigningBytes()
		dec.ID()
		dec.Digest()
	}); allocs != 0 {
		t.Errorf("a decoded tag's SigningBytes, ID and Digest allocate %.1f/op, want 0", allocs)
	}
}
