package pki

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/sha256"
	"crypto/x509"
	"encoding/hex"
	"encoding/pem"
	"fmt"
	"io"

	"github.com/tactic-icn/tactic/internal/names"
)

// PEM serialisation for TACTIC identities, used by the command-line
// tools to move keys between the producer (enrollment), routers (trust
// anchors), and clients. The locator name travels in a PEM header so a
// single file carries the complete identity binding.

// PEM block types.
const (
	pemECDSAPrivate = "TACTIC ECDSA PRIVATE KEY"
	pemECDSAPublic  = "TACTIC ECDSA PUBLIC KEY"
	pemFastPrivate  = "TACTIC SIM PRIVATE KEY"
)

// pemLocatorHeader carries the key-locator name.
const pemLocatorHeader = "Locator"

// MarshalECDSAPrivate serialises a key pair (private half) to PEM.
func MarshalECDSAPrivate(k *ECDSAKeyPair) ([]byte, error) {
	der, err := x509.MarshalECPrivateKey(k.priv)
	if err != nil {
		return nil, fmt.Errorf("pki: marshal ecdsa private: %w", err)
	}
	return pem.EncodeToMemory(&pem.Block{
		Type:    pemECDSAPrivate,
		Headers: map[string]string{pemLocatorHeader: k.locator.String()},
		Bytes:   der,
	}), nil
}

// UnmarshalECDSAPrivate parses a PEM key pair. rng reseeds the signing
// nonce stream (crypto/rand.Reader in production).
func UnmarshalECDSAPrivate(data []byte, rng io.Reader) (*ECDSAKeyPair, error) {
	block, _ := pem.Decode(data)
	if block == nil || block.Type != pemECDSAPrivate {
		return nil, fmt.Errorf("pki: no %s PEM block", pemECDSAPrivate)
	}
	locator, err := names.Parse(block.Headers[pemLocatorHeader])
	if err != nil {
		return nil, fmt.Errorf("pki: key locator header: %w", err)
	}
	priv, err := x509.ParseECPrivateKey(block.Bytes)
	if err != nil {
		return nil, fmt.Errorf("pki: parse ecdsa private: %w", err)
	}
	if priv.Curve != elliptic.P256() {
		return nil, fmt.Errorf("pki: ecdsa private key on %s, want P-256", priv.Curve.Params().Name)
	}
	var salt [32]byte
	if _, err := io.ReadFull(rng, salt[:]); err != nil {
		return nil, fmt.Errorf("pki: nonce salt: %w", err)
	}
	seed := sha256.Sum256(append(priv.D.Bytes(), salt[:]...))
	return &ECDSAKeyPair{
		priv:      priv,
		locator:   locator,
		nonceRand: &hashStream{seed: seed[:]},
	}, nil
}

// MarshalPublic serialises a verifying key (with its locator) to PEM.
// ECDSA keys use PKIX encoding; simulation keys export their seed (they
// are symmetric — see the FastScheme caveat).
func MarshalPublic(locator names.Name, key PublicKey) ([]byte, error) {
	switch k := key.(type) {
	case ecdsaPublicKey:
		der, err := x509.MarshalPKIXPublicKey(k.pub)
		if err != nil {
			return nil, fmt.Errorf("pki: marshal ecdsa public: %w", err)
		}
		return pem.EncodeToMemory(&pem.Block{
			Type:    pemECDSAPublic,
			Headers: map[string]string{pemLocatorHeader: locator.String()},
			Bytes:   der,
		}), nil
	case fastPublicKey:
		return pem.EncodeToMemory(&pem.Block{
			Type:    pemFastPrivate,
			Headers: map[string]string{pemLocatorHeader: locator.String()},
			Bytes:   k.seed[:],
		}), nil
	default:
		return nil, fmt.Errorf("pki: unsupported key type %T", key)
	}
}

// UnmarshalPublic parses a verifying key PEM, returning its locator and
// key.
func UnmarshalPublic(data []byte) (names.Name, PublicKey, error) {
	block, _ := pem.Decode(data)
	if block == nil {
		return names.Name{}, nil, fmt.Errorf("pki: no PEM block")
	}
	locator, err := names.Parse(block.Headers[pemLocatorHeader])
	if err != nil {
		return names.Name{}, nil, fmt.Errorf("pki: key locator header: %w", err)
	}
	switch block.Type {
	case pemECDSAPublic:
		pub, err := x509.ParsePKIXPublicKey(block.Bytes)
		if err != nil {
			return names.Name{}, nil, fmt.Errorf("pki: parse ecdsa public: %w", err)
		}
		ecPub, ok := pub.(*ecdsa.PublicKey)
		if !ok {
			return names.Name{}, nil, fmt.Errorf("pki: not an ECDSA key: %T", pub)
		}
		if ecPub.Curve != elliptic.P256() {
			return names.Name{}, nil, fmt.Errorf("pki: ecdsa public key on %s, want P-256", ecPub.Curve.Params().Name)
		}
		return locator, ecdsaPublicKey{pub: ecPub}, nil
	case pemFastPrivate:
		if len(block.Bytes) != 32 {
			return names.Name{}, nil, fmt.Errorf("pki: bad sim key length %d", len(block.Bytes))
		}
		var seed [32]byte
		copy(seed[:], block.Bytes)
		return locator, fastPublicKey{seed: seed}, nil
	default:
		return names.Name{}, nil, fmt.Errorf("pki: unknown PEM type %q", block.Type)
	}
}

// FingerprintHex renders a key fingerprint for human display.
func FingerprintHex(key PublicKey) string {
	fp := key.Fingerprint()
	return hex.EncodeToString(fp[:8])
}
