// Package core implements TACTIC, the paper's primary contribution: a
// tag-based access-control framework in which providers delegate
// authentication and authorization to the (semi-trusted) routers of an
// ISP edge network.
//
// A client registers once with a provider and receives a signed Tag —
// the tuple <Pub_p, AL_u, Pub_u, AP_u, T_e> of provider key locator,
// access level, client key locator, access path, and expiry (paper §4.A;
// with the provider's signature this is the paper's "6-tuple"). The tag
// rides in every Interest. Routers validate tags with the pre-check of
// Protocol 1 followed by Bloom-filter-cached signature verification, and
// collaborate through the flag F so that a tag is verified once near the
// edge and only probabilistically re-verified upstream (Protocols 2–4).
//
// The protocol logic in this package is pure: every decision function
// takes explicit state and the current time and returns an action.
// Wiring those actions to faces, PITs, and links lives in
// internal/experiment, which keeps Protocols 1–4 unit-testable without a
// simulator.
package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"time"

	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/pki"
)

// AccessLevel is a hierarchical access level (paper §5): a tag with
// level L can retrieve content with any level ≤ L. Public is the paper's
// "NULL" level: content routers return Public content without any tag
// verification.
type AccessLevel uint16

// Public marks publicly available data (the paper sets AL_D to NULL).
const Public AccessLevel = 0

// Satisfies reports whether a tag with level l may access content with
// level d (AL_D ≤ AL_u).
func (l AccessLevel) Satisfies(d AccessLevel) bool { return d <= l }

// Tag is a TACTIC authentication tag. Tags are immutable after issuance;
// mutating a field invalidates the signature.
type Tag struct {
	// ProviderKey is Pub_p, the provider's public key locator. Routers
	// use it to fetch the verification key and to match against the
	// content's key locator (Protocol 1, lines 10-11).
	ProviderKey names.Name
	// Level is AL_u, the client's access level at this provider.
	Level AccessLevel
	// ClientKey is Pub_u, the client's public key locator.
	ClientKey names.Name
	// AccessPath is AP_u, the XOR-accumulated hashed identities of the
	// entities between the client and its edge router (paper §4.A).
	AccessPath AccessPath
	// Expiry is T_e. Expiry is TACTIC's sole revocation mechanism: a
	// revoked client simply never receives a fresh tag.
	Expiry time.Time
	// Signature is the provider's signature over SigningBytes.
	Signature []byte

	// enc caches the wire encoding; see Encode. A decoded tag's enc is
	// the bytes that arrived, its first signed bytes the signed fields
	// and Signature a view of the rest.
	enc    []byte
	signed int
	// id and digest cache ID and Digest once set.
	id        TagID
	digest    Digest
	hasID     bool
	hasDigest bool
}

// TagID is a tag's lifecycle identity: the SHA-256 digest of its
// SigningBytes. It covers every signed field but not the signature
// itself, so re-signing the same tuple (ECDSA signatures are
// randomised) yields the same ID — revoking an ID revokes the logical
// grant, not one particular signature over it.
type TagID [sha256.Size]byte

// String renders the ID as lowercase hex (CLI and ledger format).
func (id TagID) String() string { return hex.EncodeToString(id[:]) }

// Short renders the ID's first six bytes — enough to eyeball in logs
// and example output, not a substitute for the full form.
func (id TagID) Short() string { return hex.EncodeToString(id[:6]) }

// ParseTagID parses the hex form produced by String.
func ParseTagID(s string) (TagID, error) {
	var id TagID
	b, err := hex.DecodeString(s)
	if err != nil {
		return id, fmt.Errorf("core: parse tag ID: %w", err)
	}
	if len(b) != len(id) {
		return id, fmt.Errorf("core: parse tag ID: want %d bytes, got %d", len(id), len(b))
	}
	copy(id[:], b)
	return id, nil
}

// ID returns the tag's lifecycle identity, computing and caching it on
// first use. Like Encode, the lazy first call is not synchronised:
// tags decoded from the wire (DecodeTag) and tags from IssueTag arrive
// with the cache already populated, so sharing those across goroutines
// is safe; hand-built Tag literals must call ID once before sharing.
func (t *Tag) ID() TagID {
	if !t.hasID {
		t.id, t.hasID = sha256.Sum256(t.SigningBytes()), true
	}
	return t.id
}

// Digest is the SHA-256 digest of a tag's CacheKey: like the key it
// covers every byte of the tag, signature included, so two tags that
// differ anywhere — a forged signature over a genuine tuple too — have
// different digests, where they may share a TagID. Its fixed size makes
// it a map key that costs no allocation.
type Digest [sha256.Size]byte

// Digest returns the digest of the tag's CacheKey, computed and cached
// on first use. Like Encode, the lazy first call is not synchronised:
// tags decoded from the wire arrive with it cached, any other tag must
// call it once before sharing.
func (t *Tag) Digest() Digest {
	if !t.hasDigest {
		t.digest, t.hasDigest = sha256.Sum256(t.CacheKey()), true
	}
	return t.digest
}

// Tag encoding/decoding errors.
var (
	// ErrTagTruncated is returned when decoding runs out of bytes.
	ErrTagTruncated = errors.New("core: truncated tag encoding")
	// ErrTagVersion is returned for unknown encoding versions.
	ErrTagVersion = errors.New("core: unsupported tag encoding version")
	// ErrTagSpelling is returned for a key locator that is not in the
	// canonical spelling (Name.String) — "//p/KEY" or "/p/KEY/" for
	// "/p/KEY". One tuple has one accepted encoding, so a respelled
	// locator cannot buy a second cache key under the same signature.
	ErrTagSpelling = errors.New("core: tag key locator not in canonical spelling")
)

const tagEncodingVersion = 1

// SigningBytes returns the canonical bytes the provider signs: every tag
// field except the signature. For a decoded tag they are the signed
// prefix of the bytes that arrived (DecodeTag accepts only the canonical
// encoding), capped so an append cannot reach the signature; callers
// must not mutate them.
func (t *Tag) SigningBytes() []byte {
	if t.signed > 0 {
		return t.enc[:t.signed:t.signed]
	}
	return t.encodeFields(nil)
}

func (t *Tag) encodeFields(dst []byte) []byte {
	prov := t.ProviderKey.String()
	cli := t.ClientKey.String()
	dst = append(dst, tagEncodingVersion)
	dst = appendLenPrefixed(dst, []byte(prov))
	dst = binary.BigEndian.AppendUint16(dst, uint16(t.Level))
	dst = appendLenPrefixed(dst, []byte(cli))
	dst = binary.BigEndian.AppendUint64(dst, uint64(t.AccessPath))
	dst = binary.BigEndian.AppendUint64(dst, uint64(t.Expiry.UnixNano()))
	return dst
}

func appendLenPrefixed(dst, b []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(b)))
	return append(dst, b...)
}

// Encode returns the full wire encoding (fields + signature). The result
// is cached; callers must not mutate it. The paper sizes a tag at "a
// couple hundred bytes" — Size reports the exact figure.
//
// The lazy first encode is not synchronised: concurrent callers must
// ensure the cache is already populated, which is the case for every tag
// decoded from the wire (DecodeTag fills it) and for tags encoded once
// before being shared.
func (t *Tag) Encode() []byte {
	if t.enc == nil {
		enc := t.encodeFields(make([]byte, 0, 96+len(t.Signature)))
		enc = appendLenPrefixed(enc, t.Signature)
		t.enc = enc
	}
	return t.enc
}

// Size returns the wire size in bytes.
func (t *Tag) Size() int { return len(t.Encode()) }

// CacheKey returns the byte string identifying this tag in router Bloom
// filters. Two tags differing in any field (including signature) have
// different keys.
func (t *Tag) CacheKey() []byte { return t.Encode() }

// DecodeTag parses a wire-encoded tag. The accepted bytes are copied
// once into the decoded tag's encoding cache — CacheKey, Encode,
// SigningBytes and Signature are views of that copy, so the hot path
// never re-serialises a tag that arrived off the wire (and the caller
// may reuse b). A key locator must be spelled as Name.String spells it
// (ErrTagSpelling otherwise), so what DecodeTag accepts is exactly the
// canonical encoding of its fields: a tag's signature and TagID cover
// the bytes that arrived, and one signed tuple has one CacheKey.
func DecodeTag(b []byte) (*Tag, error) {
	d := decoder{buf: b}
	version, err := d.byte()
	if err != nil {
		return nil, err
	}
	if version != tagEncodingVersion {
		return nil, fmt.Errorf("%w: %d", ErrTagVersion, version)
	}
	provRaw, err := d.lenPrefixed()
	if err != nil {
		return nil, err
	}
	level, err := d.uint16()
	if err != nil {
		return nil, err
	}
	cliRaw, err := d.lenPrefixed()
	if err != nil {
		return nil, err
	}
	ap, err := d.uint64()
	if err != nil {
		return nil, err
	}
	expiry, err := d.uint64()
	if err != nil {
		return nil, err
	}
	signed := d.off
	if _, err := d.lenPrefixed(); err != nil {
		return nil, err
	}
	prov, err := names.ParseBytes(provRaw)
	if err != nil {
		return nil, fmt.Errorf("core: decode tag provider key: %w", err)
	}
	cli, err := names.ParseBytes(cliRaw)
	if err != nil {
		return nil, fmt.Errorf("core: decode tag client key: %w", err)
	}
	if prov.String() != string(provRaw) || cli.String() != string(cliRaw) {
		return nil, ErrTagSpelling
	}
	enc := append([]byte(nil), b[:d.off]...)
	t := &Tag{
		ProviderKey: prov,
		Level:       AccessLevel(level),
		ClientKey:   cli,
		AccessPath:  AccessPath(ap),
		Expiry:      time.Unix(0, int64(expiry)),
		Signature:   enc[signed+2 : d.off : d.off],
		enc:         enc,
		signed:      signed,
	}
	// Populate the caches before the tag is shared.
	t.ID()
	t.Digest()
	return t, nil
}

// decoder is a cursor over an encoded tag.
type decoder struct {
	buf []byte
	off int
}

func (d *decoder) need(n int) error {
	if d.off+n > len(d.buf) {
		return ErrTagTruncated
	}
	return nil
}

func (d *decoder) byte() (byte, error) {
	if err := d.need(1); err != nil {
		return 0, err
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

func (d *decoder) uint16() (uint16, error) {
	if err := d.need(2); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v, nil
}

func (d *decoder) uint64() (uint64, error) {
	if err := d.need(8); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

func (d *decoder) lenPrefixed() ([]byte, error) {
	n, err := d.uint16()
	if err != nil {
		return nil, err
	}
	if err := d.need(int(n)); err != nil {
		return nil, err
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b, nil
}

// IssueTag creates and signs a tag (the provider side of client
// registration, paper §4.A). The provider "generates a new tag, signs it
// to guarantee its integrity and provenance".
func IssueTag(signer pki.Signer, clientKey names.Name, level AccessLevel, ap AccessPath, expiry time.Time) (*Tag, error) {
	t := &Tag{
		ProviderKey: signer.Locator(),
		Level:       level,
		ClientKey:   clientKey,
		AccessPath:  ap,
		Expiry:      expiry,
	}
	sig, err := signer.Sign(t.SigningBytes())
	if err != nil {
		return nil, fmt.Errorf("core: issue tag for %s: %w", clientKey, err)
	}
	t.Signature = sig
	t.ID() // populate the identity cache before the tag is shared
	return t, nil
}

// Expired reports whether the tag is expired at now (T_e < T_current,
// Protocol 1 line 3).
func (t *Tag) Expired(now time.Time) bool { return t.Expiry.Before(now) }
