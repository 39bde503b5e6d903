package pki

import (
	"bytes"
	"crypto/elliptic"
	"encoding/asn1"
	"errors"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/tactic-icn/tactic/internal/names"
)

// testRNG returns a deterministic randomness source for reproducible
// tests.
func testRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestECDSASignVerify(t *testing.T) {
	kp, err := GenerateECDSA(testRNG(1), names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("tag bytes")
	sig, err := kp.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := kp.Public().Verify(msg, sig); err != nil {
		t.Errorf("valid signature rejected: %v", err)
	}
	if err := kp.Public().Verify([]byte("other"), sig); !errors.Is(err, ErrBadSignature) {
		t.Errorf("wrong message: err = %v, want ErrBadSignature", err)
	}
	sig[0] ^= 0xff
	if err := kp.Public().Verify(msg, sig); !errors.Is(err, ErrBadSignature) {
		t.Errorf("corrupted signature: err = %v, want ErrBadSignature", err)
	}
}

// sigRS splits an ASN.1 ECDSA signature into r and s.
func sigRS(t *testing.T, sig []byte) (r, s *big.Int) {
	t.Helper()
	var rs struct{ R, S *big.Int }
	if rest, err := asn1.Unmarshal(sig, &rs); err != nil || len(rest) != 0 {
		t.Fatalf("signature is not one DER SEQUENCE of two INTEGERs: %v", err)
	}
	return rs.R, rs.S
}

// TestECDSAOneEncoding: Sign emits a low s (s <= n/2) every time, and
// Verify refuses the same signature re-encoded with n-s, which satisfies
// the ECDSA equation as well — a signed message has one accepted
// signature encoding. Malformed DER is refused too.
func TestECDSAOneEncoding(t *testing.T) {
	kp, err := GenerateECDSA(testRNG(3), names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	n := elliptic.P256().Params().N
	half := new(big.Int).Rsh(n, 1)
	msg := []byte("tag bytes")
	for i := 0; i < 64; i++ {
		sig, err := kp.Sign(msg)
		if err != nil {
			t.Fatal(err)
		}
		r, s := sigRS(t, sig)
		if s.Cmp(half) > 0 {
			t.Fatalf("signature %d has a high s", i)
		}
		if err := kp.Public().Verify(msg, sig); err != nil {
			t.Fatalf("signature %d rejected: %v", i, err)
		}
		high, err := asn1.Marshal(struct{ R, S *big.Int }{r, new(big.Int).Sub(n, s)})
		if err != nil {
			t.Fatal(err)
		}
		if err := kp.Public().Verify(msg, high); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("signature %d re-encoded with n-s: err = %v, want ErrBadSignature", i, err)
		}
	}
	sig, err := kp.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	for what, bad := range map[string][]byte{
		"empty":            nil,
		"truncated":        sig[:len(sig)-1],
		"trailing byte":    append(append([]byte(nil), sig...), 0),
		"not a SEQUENCE":   append([]byte{0x31}, sig[1:]...),
		"one INTEGER":      append([]byte{0x30, sig[3] + 2}, sig[2:4+sig[3]]...),
		"long-form length": append([]byte{0x30, 0x81, sig[1]}, sig[2:]...),
	} {
		if err := kp.Public().Verify(msg, bad); !errors.Is(err, ErrBadSignature) {
			t.Errorf("%s signature: err = %v, want ErrBadSignature", what, err)
		}
	}
}

// TestLowSAllocs: the high-s refusal reads s in place.
func TestLowSAllocs(t *testing.T) {
	kp, err := GenerateECDSA(testRNG(4), names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	sig, err := kp.Sign([]byte("tag bytes"))
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, s, ok := derRS(sig); !ok || !lowS(s) {
			t.Fatal("a fresh signature reads as malformed or high-s")
		}
	}); allocs != 0 {
		t.Errorf("lowS allocates %.1f/op, want 0", allocs)
	}
}

func TestECDSADistinctSignaturesSafe(t *testing.T) {
	// The nonce stream must advance between calls; identical messages
	// should still produce verifiable (and, with distinct nonces,
	// distinct) signatures.
	kp, err := GenerateECDSA(testRNG(2), names.MustParse("/p/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("same message")
	s1, err := kp.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := kp.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(s1, s2) {
		t.Error("two signatures over the same message reused the nonce stream")
	}
	for _, s := range [][]byte{s1, s2} {
		if err := kp.Public().Verify(msg, s); err != nil {
			t.Errorf("signature rejected: %v", err)
		}
	}
}

func TestFastSignVerify(t *testing.T) {
	kp, err := GenerateFast(testRNG(3), names.MustParse("/prov1/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("simulated tag")
	sig, err := kp.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := kp.Public().Verify(msg, sig); err != nil {
		t.Errorf("valid fast signature rejected: %v", err)
	}
	if err := kp.Public().Verify(msg, append([]byte{}, make([]byte, fastSigLen)...)); !errors.Is(err, ErrBadSignature) {
		t.Errorf("forged signature: err = %v", err)
	}
	other, err := GenerateFast(testRNG(4), names.MustParse("/prov2/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Public().Verify(msg, sig); !errors.Is(err, ErrBadSignature) {
		t.Errorf("cross-key verification should fail: %v", err)
	}
}

func TestFingerprintsDiffer(t *testing.T) {
	a, _ := GenerateECDSA(testRNG(5), names.MustParse("/a/KEY/1"))
	b, _ := GenerateECDSA(testRNG(6), names.MustParse("/b/KEY/1"))
	if a.Public().Fingerprint() == b.Public().Fingerprint() {
		t.Error("distinct keys share a fingerprint")
	}
	fa, _ := GenerateFast(testRNG(7), names.MustParse("/a/KEY/1"))
	fb, _ := GenerateFast(testRNG(8), names.MustParse("/b/KEY/1"))
	if fa.Public().Fingerprint() == fb.Public().Fingerprint() {
		t.Error("distinct fast keys share a fingerprint")
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	kp, _ := GenerateFast(testRNG(9), names.MustParse("/prov/KEY/1"))
	if err := reg.Register(kp.Locator(), kp.Public()); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(kp.Locator(), kp.Public()); !errors.Is(err, ErrDuplicateKey) {
		t.Errorf("duplicate register err = %v", err)
	}
	msg := []byte("m")
	sig, _ := kp.Sign(msg)
	if err := reg.Verify(kp.Locator(), msg, sig); err != nil {
		t.Errorf("registry verify: %v", err)
	}
	if err := reg.Verify(names.MustParse("/other/KEY/1"), msg, sig); !errors.Is(err, ErrUnknownKey) {
		t.Errorf("unknown locator err = %v", err)
	}
	if reg.Len() != 1 {
		t.Errorf("Len = %d", reg.Len())
	}
	if _, err := reg.Lookup(kp.Locator()); err != nil {
		t.Errorf("lookup: %v", err)
	}
}

// A public key verifies its own scheme's signatures only: a P-256
// signature presented under a simulation key of the same locator is a
// bad signature, and the reverse.
func TestSchemesDoNotCrossVerify(t *testing.T) {
	locator := names.MustParse("/prov0/KEY/1")
	ec, err := GenerateECDSA(testRNG(4), locator)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := GenerateFast(testRNG(5), locator)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("tag bytes")
	ecSig, err := ec.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	fastSig, err := fast.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fast.Public().Verify(msg, ecSig); !errors.Is(err, ErrBadSignature) {
		t.Errorf("P-256 signature under a simulation key: err = %v, want ErrBadSignature", err)
	}
	if err := ec.Public().Verify(msg, fastSig); !errors.Is(err, ErrBadSignature) {
		t.Errorf("simulation signature under a P-256 key: err = %v, want ErrBadSignature", err)
	}
	if ec.Public().Fingerprint() == fast.Public().Fingerprint() {
		t.Error("fingerprints of different schemes collide")
	}
}

// BenchmarkVerify/p256 times one raw P-256 PublicKey.Verify over a
// tag-sized message: the verification bench/'s pki.verify_p256_us times
// behind a Registry lookup.
func BenchmarkVerify(b *testing.B) {
	kp, err := GenerateECDSA(testRNG(1), names.MustParse("/prov0/KEY/1"))
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 200)
	sig, err := kp.Sign(msg)
	if err != nil {
		b.Fatal(err)
	}
	pub := kp.Public()
	b.Run("p256", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := pub.Verify(msg, sig); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func TestContentEncryptRoundTrip(t *testing.T) {
	var key [ContentKeySize]byte
	copy(key[:], bytes.Repeat([]byte{7}, ContentKeySize))
	plain := []byte("the content chunk payload")
	ct, err := EncryptContent(testRNG(18), key, "/prov/obj/c0", plain)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecryptContent(key, "/prov/obj/c0", ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, plain) {
		t.Error("round trip mismatch")
	}
	// Name binding: decrypting under a different name fails.
	if _, err := DecryptContent(key, "/prov/obj/c1", ct); err == nil {
		t.Error("ciphertext replayed under a different name was accepted")
	}
	// Wrong key fails.
	var wrong [ContentKeySize]byte
	if _, err := DecryptContent(wrong, "/prov/obj/c0", ct); err == nil {
		t.Error("wrong key accepted")
	}
	// Truncated ciphertext fails cleanly.
	if _, err := DecryptContent(key, "/prov/obj/c0", ct[:4]); !errors.Is(err, ErrCiphertextTooShort) {
		t.Errorf("short ciphertext err = %v", err)
	}
}

func TestKeyWrapRoundTrip(t *testing.T) {
	client, err := GenerateKEMKeyPair(testRNG(19))
	if err != nil {
		t.Fatal(err)
	}
	var contentKey [ContentKeySize]byte
	copy(contentKey[:], bytes.Repeat([]byte{0x42}, ContentKeySize))
	wrapped, err := WrapContentKey(testRNG(20), client.PublicKey(), contentKey)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnwrapContentKey(client, wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if got != contentKey {
		t.Error("unwrap mismatch")
	}
	// A different client cannot unwrap (paper: revoked users keep old
	// keys but cannot fetch; unauthorized users cannot decrypt at all).
	other, err := GenerateKEMKeyPair(testRNG(21))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnwrapContentKey(other, wrapped); err == nil {
		t.Error("wrong client unwrapped the content key")
	}
	if _, err := UnwrapContentKey(client, wrapped[:8]); !errors.Is(err, ErrCiphertextTooShort) {
		t.Errorf("truncated wrap err = %v", err)
	}
}

func TestPropertyFastSchemeRoundTrip(t *testing.T) {
	f := func(seed int64, msg []byte) bool {
		kp, err := GenerateFast(testRNG(seed), names.MustParse("/p/KEY/1"))
		if err != nil {
			return false
		}
		sig, err := kp.Sign(msg)
		if err != nil {
			return false
		}
		return kp.Public().Verify(msg, sig) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyEncryptDecryptRoundTrip(t *testing.T) {
	f := func(seed int64, key [ContentKeySize]byte, plain []byte) bool {
		ct, err := EncryptContent(testRNG(seed), key, "/n", plain)
		if err != nil {
			return false
		}
		back, err := DecryptContent(key, "/n", ct)
		if err != nil {
			return false
		}
		return bytes.Equal(back, plain)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHashStreamNonRepeating(t *testing.T) {
	h := &hashStream{seed: []byte("seed")}
	a := make([]byte, 64)
	b := make([]byte, 64)
	if _, err := h.Read(a); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Read(b); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Error("hash stream repeated a block")
	}
}
