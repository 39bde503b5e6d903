// Package pki provides the public-key infrastructure that TACTIC assumes
// (paper §3.B): providers hold signing keys whose public halves are known
// to routers through a trust registry; tags and contents are signed so
// any router can validate integrity and provenance; contents are
// encrypted so possession of ciphertext does not imply access.
//
// Two signature schemes are provided behind a common interface:
//
//   - ECDSAScheme: real ECDSA over P-256 (crypto/ecdsa). Used by the
//     library proper, the examples, and the microbenchmarks that
//     reproduce the paper's measured signature-verification latency.
//   - FastScheme: a deterministic HMAC-based scheme for large-scale
//     simulation, where verification *timing* is injected from a
//     calibrated delay model (the paper's own methodology — ndnSIM does
//     not execute crypto either). FastScheme preserves validity
//     semantics (forged or corrupted signatures fail) but is NOT
//     cryptographically secure against a party who can read router
//     memory; it must never be used outside simulations.
package pki

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"

	"github.com/tactic-icn/tactic/internal/names"
)

// Errors returned by signing and verification.
var (
	// ErrBadSignature is returned when a signature does not verify.
	ErrBadSignature = errors.New("pki: signature verification failed")
	// ErrUnknownKey is returned when a key locator is not in the registry.
	ErrUnknownKey = errors.New("pki: unknown key locator")
	// ErrDuplicateKey is returned when registering a locator twice.
	ErrDuplicateKey = errors.New("pki: key locator already registered")
)

// PublicKey verifies signatures produced by the matching private key.
// Implementations are scheme-specific; the trust registry treats them
// uniformly.
type PublicKey interface {
	// Verify returns nil iff sig is a valid signature over msg.
	Verify(msg, sig []byte) error
	// Fingerprint returns a stable digest identifying the key.
	Fingerprint() [32]byte
}

// Signer produces signatures bound to a key locator name. Provider and
// client identities in TACTIC are key locators (paper: Pub_p, Pub_u are
// "names that point to a packet that contains the public key").
type Signer interface {
	// Sign signs msg.
	Sign(msg []byte) ([]byte, error)
	// Locator returns the key-locator name for the public half.
	Locator() names.Name
	// Public returns the public half for registry insertion.
	Public() PublicKey
}

// Verifier resolves key locators to public keys and verifies signatures.
type Verifier interface {
	// Verify returns nil iff sig is valid over msg under the key bound
	// to locator. ErrUnknownKey is returned for unregistered locators.
	Verify(locator names.Name, msg, sig []byte) error
}

// --- ECDSA P-256 scheme -------------------------------------------------

// ECDSAKeyPair is a real ECDSA P-256 signing key bound to a locator.
type ECDSAKeyPair struct {
	priv    *ecdsa.PrivateKey
	locator names.Name
	// nonceRand feeds ECDSA nonce generation. It is a persistent,
	// never-repeating stream seeded from the generation rng and the
	// private scalar, so deterministic test rngs stay safe: the stream
	// position advances monotonically across Sign calls and two
	// signatures never consume identical entropy.
	nonceRand io.Reader
}

var _ Signer = (*ECDSAKeyPair)(nil)

// GenerateECDSA creates a fresh P-256 key pair. rng is typically
// crypto/rand.Reader; tests may pass a deterministic reader.
func GenerateECDSA(rng io.Reader, locator names.Name) (*ECDSAKeyPair, error) {
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rng)
	if err != nil {
		return nil, fmt.Errorf("pki: generate ecdsa key: %w", err)
	}
	var salt [32]byte
	if _, err := io.ReadFull(rng, salt[:]); err != nil {
		return nil, fmt.Errorf("pki: generate nonce salt: %w", err)
	}
	seed := sha256.Sum256(append(priv.D.Bytes(), salt[:]...))
	return &ECDSAKeyPair{
		priv:      priv,
		locator:   locator,
		nonceRand: &hashStream{seed: seed[:]},
	}, nil
}

// Sign signs msg with ECDSA over SHA-256, returning an ASN.1 signature
// with a low s (s <= n/2). (r, s) and (r, n-s) both satisfy the ECDSA
// equation; Verify accepts only the low one, so a signed message has a
// single accepted signature encoding.
func (k *ECDSAKeyPair) Sign(msg []byte) ([]byte, error) {
	digest := sha256.Sum256(msg)
	sig, err := ecdsa.SignASN1(k.nonceRand, k.priv, digest[:])
	if err != nil {
		return nil, fmt.Errorf("pki: ecdsa sign: %w", err)
	}
	r, s, ok := derRS(sig)
	if !ok {
		return nil, errors.New("pki: ecdsa sign: malformed signature")
	}
	if lowS(s) {
		return sig, nil
	}
	// Encode (r, n-s) instead: a minimal INTEGER, with a zero byte in
	// front when its top bit is set.
	s = new(big.Int).Sub(elliptic.P256().Params().N, new(big.Int).SetBytes(s)).Bytes()
	if s[0]&0x80 != 0 {
		s = append([]byte{0}, s...)
	}
	sig = append([]byte{0x30, byte(4 + len(r) + len(s)), 0x02, byte(len(r))}, r...)
	return append(append(sig, 0x02, byte(len(s))), s...), nil
}

// Locator returns the key-locator name.
func (k *ECDSAKeyPair) Locator() names.Name { return k.locator }

// Public returns the verifying half.
func (k *ECDSAKeyPair) Public() PublicKey { return ecdsaPublicKey{pub: &k.priv.PublicKey} }

type ecdsaPublicKey struct {
	pub *ecdsa.PublicKey
}

var _ PublicKey = ecdsaPublicKey{}

// Verify refuses a high-s signature (see Sign) before checking it.
func (p ecdsaPublicKey) Verify(msg, sig []byte) error {
	if _, s, ok := derRS(sig); !ok || !lowS(s) {
		return ErrBadSignature
	}
	digest := sha256.Sum256(msg)
	if !ecdsa.VerifyASN1(p.pub, digest[:], sig) {
		return ErrBadSignature
	}
	return nil
}

func (p ecdsaPublicKey) Fingerprint() [32]byte {
	raw := elliptic.MarshalCompressed(p.pub.Curve, p.pub.X, p.pub.Y)
	return sha256.Sum256(raw)
}

// p256HalfOrder is floor(n/2) for P-256, big-endian: the largest s a
// signature may carry.
var p256HalfOrder = new(big.Int).Rsh(elliptic.P256().Params().N, 1).FillBytes(make([]byte, 32))

// derRS splits sig, a DER SEQUENCE of the INTEGERs r and s, into the
// contents of the two INTEGERs, in place and without allocating. It
// reads short-form lengths only, which every P-256 signature has (at
// most 72 bytes), and refuses anything else.
func derRS(sig []byte) (r, s []byte, ok bool) {
	// readInt splits a short-form DER INTEGER off the front of b.
	readInt := func(b []byte) (v, rest []byte, ok bool) {
		if len(b) < 2 || b[0] != 0x02 || b[1] >= 0x80 || int(b[1]) > len(b)-2 {
			return nil, nil, false
		}
		return b[2 : 2+int(b[1])], b[2+int(b[1]):], true
	}
	if len(sig) < 2 || sig[0] != 0x30 || int(sig[1]) != len(sig)-2 {
		return nil, nil, false
	}
	if r, sig, ok = readInt(sig[2:]); !ok {
		return nil, nil, false
	}
	if s, sig, ok = readInt(sig); !ok || len(sig) != 0 {
		return nil, nil, false
	}
	return r, s, true
}

// lowS reports whether the INTEGER contents s are at most n/2 for P-256,
// the only curve keys are made on (GenerateECDSA) or parsed from
// (marshal.go).
func lowS(s []byte) bool {
	for len(s) > 0 && s[0] == 0 {
		s = s[1:]
	}
	return len(s) < len(p256HalfOrder) ||
		len(s) == len(p256HalfOrder) && bytes.Compare(s, p256HalfOrder) <= 0
}

// --- Fast simulation scheme ----------------------------------------------

// FastKeyPair is the simulation-only signing key: signatures are
// truncated HMAC-SHA256 tags under a shared seed. See the package
// comment for the security caveat.
type FastKeyPair struct {
	seed    [32]byte
	locator names.Name
}

var _ Signer = (*FastKeyPair)(nil)

const fastSigLen = 16

// GenerateFast creates a simulation key pair with a seed drawn from rng.
func GenerateFast(rng io.Reader, locator names.Name) (*FastKeyPair, error) {
	var seed [32]byte
	if _, err := io.ReadFull(rng, seed[:]); err != nil {
		return nil, fmt.Errorf("pki: generate fast key: %w", err)
	}
	return &FastKeyPair{seed: seed, locator: locator}, nil
}

// Sign computes the truncated HMAC tag over msg.
func (k *FastKeyPair) Sign(msg []byte) ([]byte, error) {
	mac := hmac.New(sha256.New, k.seed[:])
	mac.Write(msg) //nolint:errcheck // hash writes never error
	return mac.Sum(nil)[:fastSigLen], nil
}

// Locator returns the key-locator name.
func (k *FastKeyPair) Locator() names.Name { return k.locator }

// Public returns the verifying half (which, for this symmetric
// simulation scheme, embeds the seed).
func (k *FastKeyPair) Public() PublicKey { return fastPublicKey{seed: k.seed} }

type fastPublicKey struct {
	seed [32]byte
}

var _ PublicKey = fastPublicKey{}

func (p fastPublicKey) Verify(msg, sig []byte) error {
	mac := hmac.New(sha256.New, p.seed[:])
	mac.Write(msg) //nolint:errcheck // hash writes never error
	want := mac.Sum(nil)[:fastSigLen]
	if !hmac.Equal(want, sig) {
		return ErrBadSignature
	}
	return nil
}

func (p fastPublicKey) Fingerprint() [32]byte {
	return sha256.Sum256(append([]byte("fast:"), p.seed[:]...))
}

// --- Registry --------------------------------------------------------------

// Registry maps key-locator names to public keys. Paper §5: "the
// universe of providers that require access control ... would
// potentially number in a few thousands. Thus, our approach of storing
// public key[s] of the providers would not suffer from scalability
// issues."
//
// Registry is not safe for concurrent mutation; the simulator populates
// it during setup and only reads afterwards.
type Registry struct {
	keys map[string]PublicKey
}

var _ Verifier = (*Registry)(nil)

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{keys: make(map[string]PublicKey)}
}

// Register binds a locator to a public key. Registering the same locator
// twice returns ErrDuplicateKey so that misconfigured scenarios fail
// loudly.
func (r *Registry) Register(locator names.Name, key PublicKey) error {
	k := locator.Key()
	if _, ok := r.keys[k]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateKey, locator)
	}
	r.keys[k] = key
	return nil
}

// Lookup returns the key bound to locator.
func (r *Registry) Lookup(locator names.Name) (PublicKey, error) {
	key, ok := r.keys[locator.Key()]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownKey, locator)
	}
	return key, nil
}

// Verify resolves the locator and checks the signature.
func (r *Registry) Verify(locator names.Name, msg, sig []byte) error {
	key, err := r.Lookup(locator)
	if err != nil {
		return err
	}
	return key.Verify(msg, sig)
}

// Len reports the number of registered keys.
func (r *Registry) Len() int { return len(r.keys) }

// --- helpers ----------------------------------------------------------------

// hashStream is an expanding SHA-256 counter stream.
type hashStream struct {
	seed []byte
	ctr  uint64
	buf  bytes.Buffer
}

func (h *hashStream) Read(p []byte) (int, error) {
	for h.buf.Len() < len(p) {
		var blk [8]byte
		for i := 0; i < 8; i++ {
			blk[i] = byte(h.ctr >> (8 * i))
		}
		h.ctr++
		sum := sha256.Sum256(append(append([]byte{}, h.seed...), blk[:]...))
		h.buf.Write(sum[:])
	}
	return h.buf.Read(p)
}
