package pki

import (
	"crypto/ed25519"
	"crypto/sha256"
	"fmt"
	"io"

	"github.com/tactic-icn/tactic/internal/names"
)

// --- Ed25519 scheme ---------------------------------------------------------
//
// Ed25519 is the cheaper real-crypto alternative to ECDSA P-256 for tag
// signatures: one verification costs roughly two thirds of a P-256 one
// on amd64 (BenchmarkVerify in this package times the pair). Providers
// pick their scheme at key-generation time; routers are scheme-agnostic
// — the registry dispatches on whatever PublicKey implementation is
// bound to the tag's provider key locator, so a deployment can migrate
// provider by provider.

// Ed25519KeyPair is an Ed25519 signing key bound to a locator.
type Ed25519KeyPair struct {
	priv    ed25519.PrivateKey
	locator names.Name
}

var _ Signer = (*Ed25519KeyPair)(nil)

// GenerateEd25519 creates a fresh Ed25519 key pair. rng is typically
// crypto/rand.Reader; tests may pass a deterministic reader.
func GenerateEd25519(rng io.Reader, locator names.Name) (*Ed25519KeyPair, error) {
	_, priv, err := ed25519.GenerateKey(rng)
	if err != nil {
		return nil, fmt.Errorf("pki: generate ed25519 key: %w", err)
	}
	return &Ed25519KeyPair{priv: priv, locator: locator}, nil
}

// Sign signs msg. Ed25519 signing is deterministic; no nonce stream is
// needed.
func (k *Ed25519KeyPair) Sign(msg []byte) ([]byte, error) {
	return ed25519.Sign(k.priv, msg), nil
}

// Locator returns the key-locator name.
func (k *Ed25519KeyPair) Locator() names.Name { return k.locator }

// Public returns the verifying half.
func (k *Ed25519KeyPair) Public() PublicKey {
	return ed25519PublicKey{pub: k.priv.Public().(ed25519.PublicKey)}
}

type ed25519PublicKey struct {
	pub ed25519.PublicKey
}

var _ PublicKey = ed25519PublicKey{}

func (p ed25519PublicKey) Verify(msg, sig []byte) error {
	if len(sig) != ed25519.SignatureSize || !ed25519.Verify(p.pub, msg, sig) {
		return ErrBadSignature
	}
	return nil
}

func (p ed25519PublicKey) Fingerprint() [32]byte {
	return sha256.Sum256(append([]byte("ed25519:"), p.pub...))
}
