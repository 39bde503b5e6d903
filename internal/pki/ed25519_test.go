package pki

import (
	"errors"
	"testing"

	"github.com/tactic-icn/tactic/internal/names"
)

func TestEd25519SignVerify(t *testing.T) {
	locator := names.MustParse("/prov0/KEY/1")
	kp, err := GenerateEd25519(testRNG(1), locator)
	if err != nil {
		t.Fatal(err)
	}
	other, err := GenerateEd25519(testRNG(2), locator)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Register(kp.Locator(), kp.Public()); err != nil {
		t.Fatal(err)
	}
	msg := []byte("tag bytes")
	sig, err := kp.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Verify(locator, msg, sig); err != nil {
		t.Errorf("valid signature rejected: %v", err)
	}

	flipped := append([]byte(nil), sig...)
	flipped[0] ^= 0xff
	wrongKey, err := other.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{
		"flipped":   flipped,
		"truncated": sig[:len(sig)-1],
		"empty":     nil,
		"wrong key": wrongKey,
	} {
		if err := reg.Verify(locator, msg, bad); !errors.Is(err, ErrBadSignature) {
			t.Errorf("%s signature: err = %v, want ErrBadSignature", name, err)
		}
	}
	if err := reg.Verify(locator, []byte("other"), sig); !errors.Is(err, ErrBadSignature) {
		t.Errorf("wrong message: err = %v, want ErrBadSignature", err)
	}
}

func TestPublicMarshalRoundTripEd25519(t *testing.T) {
	kp, err := GenerateEd25519(testRNG(3), names.MustParse("/prov1/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	pemBytes, err := MarshalPublic(kp.Locator(), kp.Public())
	if err != nil {
		t.Fatal(err)
	}
	locator, pub, err := UnmarshalPublic(pemBytes)
	if err != nil {
		t.Fatal(err)
	}
	if !locator.Equal(kp.Locator()) {
		t.Errorf("locator = %v", locator)
	}
	if pub.Fingerprint() != kp.Public().Fingerprint() {
		t.Error("fingerprint changed across the PEM round trip")
	}
	msg := []byte("m")
	sig, err := kp.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Verify(msg, sig); err != nil {
		t.Errorf("unmarshalled public key rejects valid signature: %v", err)
	}
}

// A registry dispatches on the key bound to the locator, not on the
// signature's shape: a P-256 signature presented under an Ed25519 key of
// the same locator is a bad signature, and the reverse.
func TestSchemesDoNotCrossVerify(t *testing.T) {
	locator := names.MustParse("/prov0/KEY/1")
	ec, err := GenerateECDSA(testRNG(4), locator)
	if err != nil {
		t.Fatal(err)
	}
	ed, err := GenerateEd25519(testRNG(5), locator)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("tag bytes")
	ecSig, err := ec.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	edSig, err := ed.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ed.Public().Verify(msg, ecSig); !errors.Is(err, ErrBadSignature) {
		t.Errorf("P-256 signature under Ed25519 key: err = %v, want ErrBadSignature", err)
	}
	if err := ec.Public().Verify(msg, edSig); !errors.Is(err, ErrBadSignature) {
		t.Errorf("Ed25519 signature under P-256 key: err = %v, want ErrBadSignature", err)
	}
	if ec.Public().Fingerprint() == ed.Public().Fingerprint() {
		t.Error("fingerprints of different schemes collide")
	}
}

// BenchmarkVerify times one raw PublicKey.Verify per scheme over a
// tag-sized message: the pair ROADMAP's wire-it-or-delete-it decision on
// Ed25519 needs, in one harness. p256 is the verification bench/'s
// pki.verify_p256_us times behind a Registry lookup.
func BenchmarkVerify(b *testing.B) {
	locator := names.MustParse("/prov0/KEY/1")
	ec, err := GenerateECDSA(testRNG(1), locator)
	if err != nil {
		b.Fatal(err)
	}
	ed, err := GenerateEd25519(testRNG(1), locator)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 200)
	for _, scheme := range []struct {
		name string
		kp   Signer
	}{{"p256", ec}, {"ed25519", ed}} {
		sig, err := scheme.kp.Sign(msg)
		if err != nil {
			b.Fatal(err)
		}
		pub := scheme.kp.Public()
		b.Run(scheme.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := pub.Verify(msg, sig); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
