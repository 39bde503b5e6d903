package pki

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/x509"
	"encoding/pem"
	"math/rand"
	"testing"

	"github.com/tactic-icn/tactic/internal/names"
)

func TestECDSAPrivateMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	kp, err := GenerateECDSA(rng, names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	pemBytes, err := MarshalECDSAPrivate(kp)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalECDSAPrivate(pemBytes, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if !back.Locator().Equal(kp.Locator()) {
		t.Errorf("locator = %v", back.Locator())
	}
	// The restored key signs; the original public half verifies.
	msg := []byte("hello")
	sig, err := back.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := kp.Public().Verify(msg, sig); err != nil {
		t.Errorf("restored key's signature rejected: %v", err)
	}
	if back.Public().Fingerprint() != kp.Public().Fingerprint() {
		t.Error("fingerprint changed across marshal")
	}
}

func TestPublicMarshalRoundTripECDSA(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	kp, err := GenerateECDSA(rng, names.MustParse("/prov1/KEY/1"))
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
	msg := []byte("m")
	sig, err := kp.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Verify(msg, sig); err != nil {
		t.Errorf("unmarshalled public key rejects valid signature: %v", err)
	}
}

func TestPublicMarshalRoundTripFast(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	kp, err := GenerateFast(rng, names.MustParse("/prov2/KEY/1"))
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
	msg := []byte("m")
	sig, err := kp.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Verify(msg, sig); err != nil {
		t.Errorf("unmarshalled sim key rejects valid signature: %v", err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, _, err := UnmarshalPublic([]byte("not pem")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := UnmarshalECDSAPrivate([]byte("not pem"), rand.New(rand.NewSource(1))); err == nil {
		t.Error("garbage private accepted")
	}
	// Wrong block type.
	rng := rand.New(rand.NewSource(5))
	kp, err := GenerateECDSA(rng, names.MustParse("/p/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	pubPEM, err := MarshalPublic(kp.Locator(), kp.Public())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalECDSAPrivate(pubPEM, rng); err == nil {
		t.Error("public block parsed as private")
	}
	// Ed25519 keys are not a supported scheme: a router must not trust a
	// key no signer here can match.
	edPEM := pem.EncodeToMemory(&pem.Block{
		Type:    "TACTIC ED25519 PUBLIC KEY",
		Headers: map[string]string{"Locator": "/p/KEY/1"},
		Bytes:   make([]byte, 32),
	})
	if _, _, err := UnmarshalPublic(edPEM); err == nil {
		t.Error("Ed25519 public key accepted")
	}
	// ECDSA keys on another curve than P-256: Verify's low-s check knows
	// only P-256's order.
	p384, err := ecdsa.GenerateKey(elliptic.P384(), rng)
	if err != nil {
		t.Fatal(err)
	}
	pubDER, err := x509.MarshalPKIXPublicKey(&p384.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	privDER, err := x509.MarshalECPrivateKey(p384)
	if err != nil {
		t.Fatal(err)
	}
	hdr := map[string]string{"Locator": "/p/KEY/1"}
	if _, _, err := UnmarshalPublic(pem.EncodeToMemory(&pem.Block{Type: pemECDSAPublic, Headers: hdr, Bytes: pubDER})); err == nil {
		t.Error("P-384 public key accepted")
	}
	if _, err := UnmarshalECDSAPrivate(pem.EncodeToMemory(&pem.Block{Type: pemECDSAPrivate, Headers: hdr, Bytes: privDER}), rng); err == nil {
		t.Error("P-384 private key accepted")
	}
}
