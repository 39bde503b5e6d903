package core

import (
	"bufio"
	"crypto/ecdh"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/pki"
)

// Registration errors.
var (
	// ErrNotEnrolled: the client has no account (or was revoked) at this
	// provider, so registration is dropped (paper §4.A: the provider
	// "verifies client u's credentials and provides her a fresh tag if
	// she is authorized or drops the request otherwise").
	ErrNotEnrolled = errors.New("core: client not enrolled at provider")
	// ErrBadCredential: the registration request's proof of identity did
	// not verify against the enrolled client key.
	ErrBadCredential = errors.New("core: registration credential invalid")
)

// RegistrationRequest is a client's tag request: its key locator, a
// signature over the request binding (proof of key possession), and the
// access path accumulated between the client and its edge router, which
// the provider copies into the tag (§4.A: "When provider p receives u's
// registration request, it adds u's access path (AP_u) to the tag").
type RegistrationRequest struct {
	// ClientKey is Pub_u.
	ClientKey names.Name
	// AccessPath is the path accumulated en route and frozen by the edge
	// router.
	AccessPath AccessPath
	// Nonce is covered by the credential, but Register does not check
	// it for freshness: a captured request can be replayed (replay marks
	// are open, ROADMAP.md item 11).
	Nonce uint64
	// Credential is the client's signature over SigningBytes.
	Credential []byte
	// KEMPublic optionally carries the client's X25519 key so the
	// provider can wrap the content decryption key in the response
	// (paper §6: "A provider can encrypt the content decryption key with
	// the client's public key and send it to the client along with her
	// tag").
	KEMPublic *ecdh.PublicKey
}

// SigningBytes returns the canonical bytes the client signs to prove key
// possession.
func (r *RegistrationRequest) SigningBytes() []byte {
	buf := make([]byte, 0, 64)
	buf = append(buf, []byte("tactic-reg-v1|")...)
	buf = append(buf, []byte(r.ClientKey.String())...)
	buf = append(buf, '|')
	for i := 0; i < 8; i++ {
		buf = append(buf, byte(r.Nonce>>(8*i)))
	}
	for i := 0; i < 8; i++ {
		buf = append(buf, byte(uint64(r.AccessPath)>>(8*i)))
	}
	return buf
}

// RegistrationResponse carries the fresh tag and, when the request
// included a KEM key, the wrapped content decryption key.
type RegistrationResponse struct {
	// Tag is the fresh, signed tag.
	Tag *Tag
	// WrappedContentKey is the provider's content key encrypted to the
	// client's KEM key; nil when no KEM key was supplied.
	WrappedContentKey []byte
}

// enrollment is one client account at a provider.
type enrollment struct {
	key   pki.PublicKey
	level AccessLevel
}

// Provider is a TACTIC content provider: it enrolls clients out of band,
// answers registration requests with signed tags, publishes encrypted,
// access-levelled content, and is the one issuer of its tags: every tag
// it mints is recorded as a grant that can be renewed or revoked by ID
// (see grants.go). Safe for concurrent use.
type Provider struct {
	prefix     names.Name
	signer     pki.Signer
	tagTTL     time.Duration
	contentKey [pki.ContentKeySize]byte

	mu         sync.Mutex // guards everything below and the use of rng
	rng        io.Reader
	enrolled   map[string]enrollment
	issued     uint64
	grants     map[TagID]*Grant
	active     int    // grants in GrantActive
	revVersion uint64 // advances once per revocation; the pushed set's version
	sweepAt    int    // grant count at which Register next sweeps
	ledger     *os.File
	ledgerW    *bufio.Writer
}

// NewProvider creates a provider owning the given name prefix. tagTTL is
// the tag validity period T_e - T_issue (the paper evaluates 10 s, 100 s,
// and 1000 s). rng feeds content encryption and key wrapping.
func NewProvider(prefix names.Name, signer pki.Signer, tagTTL time.Duration, rng io.Reader) (*Provider, error) {
	if tagTTL <= 0 {
		return nil, fmt.Errorf("core: tag TTL must be positive, got %s", tagTTL)
	}
	p := &Provider{
		prefix:   prefix,
		signer:   signer,
		tagTTL:   tagTTL,
		rng:      rng,
		enrolled: make(map[string]enrollment),
		grants:   make(map[TagID]*Grant),
	}
	if _, err := io.ReadFull(rng, p.contentKey[:]); err != nil {
		return nil, fmt.Errorf("core: provider content key: %w", err)
	}
	return p, nil
}

// Prefix returns the provider's name prefix.
func (p *Provider) Prefix() names.Name { return p.prefix }

// KeyLocator returns the provider's public key locator Pub_p.
func (p *Provider) KeyLocator() names.Name { return p.signer.Locator() }

// TagTTL returns the configured tag validity period.
func (p *Provider) TagTTL() time.Duration { return p.tagTTL }

// Enroll creates (or updates) a client account with the given access
// level. Enrollment models the out-of-band account setup that precedes
// TACTIC's in-band registration.
func (p *Provider) Enroll(clientKey names.Name, key pki.PublicKey, level AccessLevel) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.enrolled[clientKey.Key()] = enrollment{key: key, level: level}
}

// Unenroll removes a client's account. The client keeps any tag it
// already holds until T_e — time-based revocation is TACTIC's mechanism;
// a shorter TTL tightens the window, and Revoke closes it for one grant.
func (p *Provider) Unenroll(clientKey names.Name) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.enrolled, clientKey.Key())
}

// Enrolled reports whether a client currently has an account.
func (p *Provider) Enrolled(clientKey names.Name) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.enrolled[clientKey.Key()]
	return ok
}

// Register processes a registration request at virtual time now: it
// verifies the credential against the enrolled key and returns a fresh
// signed tag with expiry now + TTL (paper §4.A), recorded as a grant.
func (p *Provider) Register(req RegistrationRequest, now time.Time) (*RegistrationResponse, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	acct, ok := p.enrolled[req.ClientKey.Key()]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotEnrolled, req.ClientKey)
	}
	if err := acct.key.Verify(req.SigningBytes(), req.Credential); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadCredential, err)
	}
	if len(p.grants) >= p.sweepAt {
		p.sweep(now)
	}
	tag, err := p.mint(req.ClientKey, acct.level, req.AccessPath, now.Add(p.tagTTL), nil)
	if err != nil {
		return nil, err
	}
	p.issued++
	resp := &RegistrationResponse{Tag: tag}
	if req.KEMPublic != nil {
		wrapped, err := pki.WrapContentKey(p.rng, req.KEMPublic, p.contentKey)
		if err != nil {
			return nil, fmt.Errorf("core: wrap content key: %w", err)
		}
		resp.WrappedContentKey = wrapped
	}
	return resp, nil
}

// TagsIssued returns the number of tags issued at registration (Fig. 6's
// R series at the provider side).
func (p *Provider) TagsIssued() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.issued
}

// Content is one published chunk: ciphertext plus the signed
// access-control metadata TACTIC routers act on.
type Content struct {
	// Meta carries name, AL_D, and Pub_p^D.
	Meta ContentMeta
	// Payload is the (encrypted, for non-Public levels) chunk body.
	Payload []byte
	// Signature is the provider's signature over the metadata and
	// payload, giving contents integrity and provenance (§3.A) and
	// letting clients detect poisoned content (§6.B).
	Signature []byte

	// enc holds the wire encoding of a content decoded off the wire
	// (DecodeContentInto) or copied (CopyContent), and Payload and
	// Signature are views into it, so a content-store hit re-sends these
	// bytes instead of re-serialising the payload per request. Empty for
	// a content built locally; its capacity is the buffer the next
	// decode or copy into the same Content reuses.
	enc []byte
}

// contentSigningBytes builds the byte string a content signature covers.
func contentSigningBytes(meta ContentMeta, payload []byte) []byte {
	name := meta.Name.String()
	prov := meta.ProviderKey.String()
	buf := make([]byte, 0, len(name)+len(prov)+len(payload)+8)
	buf = appendLenPrefixed(buf, []byte(name))
	buf = append(buf, byte(meta.Level>>8), byte(meta.Level))
	buf = appendLenPrefixed(buf, []byte(prov))
	return append(buf, payload...)
}

// Publish encrypts (unless Public) and signs one chunk under the
// provider's content key.
func (p *Provider) Publish(name names.Name, level AccessLevel, plaintext []byte) (*Content, error) {
	if !name.HasPrefix(p.prefix) {
		return nil, fmt.Errorf("core: publish %s outside provider prefix %s", name, p.prefix)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	payload := plaintext
	if level != Public {
		ct, err := pki.EncryptContent(p.rng, p.contentKey, name.String(), plaintext)
		if err != nil {
			return nil, fmt.Errorf("core: encrypt %s: %w", name, err)
		}
		payload = ct
	}
	meta := ContentMeta{Name: name, Level: level, ProviderKey: p.signer.Locator()}
	sig, err := p.signer.Sign(contentSigningBytes(meta, payload))
	if err != nil {
		return nil, fmt.Errorf("core: sign %s: %w", name, err)
	}
	return &Content{Meta: meta, Payload: payload, Signature: sig}, nil
}

// VerifyContent checks a content packet's provenance against a trust
// registry — the client-side defence the paper invokes against cache
// poisoning by a malicious provider (§6.B: "the client can validate the
// content by verifying its signature").
func VerifyContent(registry pki.Verifier, c *Content) error {
	if err := registry.Verify(c.Meta.ProviderKey, contentSigningBytes(c.Meta, c.Payload), c.Signature); err != nil {
		return fmt.Errorf("core: content %s: %w", c.Meta.Name, err)
	}
	return nil
}
