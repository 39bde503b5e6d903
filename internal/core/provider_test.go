package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/pki"
)

// newTestProvider builds a provider plus its trust registry.
func newTestProvider(t *testing.T, seed int64, ttl time.Duration) (*Provider, *pki.Registry) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	signer, err := pki.GenerateFast(rng, names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProvider(names.MustParse("/prov0"), signer, ttl, rng)
	if err != nil {
		t.Fatal(err)
	}
	reg := pki.NewRegistry()
	if err := reg.Register(signer.Locator(), signer.Public()); err != nil {
		t.Fatal(err)
	}
	return p, reg
}

// newTestClient builds a client identity.
func newTestClient(t *testing.T, seed int64, locator string) *Client {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	signer, err := pki.GenerateFast(rng, names.MustParse(locator))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(signer, rng)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestProviderTTLValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	signer, err := pki.GenerateFast(rng, names.MustParse("/p/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewProvider(names.MustParse("/p"), signer, 0, rng); err == nil {
		t.Error("zero TTL accepted")
	}
	if _, err := NewProvider(names.MustParse("/p"), signer, -time.Second, rng); err == nil {
		t.Error("negative TTL accepted")
	}
}

func TestRegistrationFlow(t *testing.T) {
	p, reg := newTestProvider(t, 2, 10*time.Second)
	client := newTestClient(t, 3, "/u/alice/KEY/1")
	now := testTime(100)
	ap := AccessPathOf("ap0")

	p.Enroll(client.KeyLocator(), clientPublic(t, client, 3), 4)
	if !p.Enrolled(client.KeyLocator()) {
		t.Fatal("enrollment lost")
	}

	req, err := client.NewRegistrationRequest(ap)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := p.Register(req, now)
	if err != nil {
		t.Fatal(err)
	}
	tag := resp.Tag
	if tag.Level != 4 {
		t.Errorf("tag level = %d, want enrolled level 4", tag.Level)
	}
	if tag.AccessPath != ap {
		t.Error("tag access path should echo the request's")
	}
	if !tag.Expiry.Equal(now.Add(10 * time.Second)) {
		t.Errorf("tag expiry = %v, want now+TTL", tag.Expiry)
	}
	if !tag.ClientKey.Equal(client.KeyLocator()) {
		t.Error("tag client key mismatch")
	}
	// The issued tag verifies through the routers' registry.
	if err := NewTagValidator(reg).Validate(tag, now); err != nil {
		t.Errorf("issued tag invalid: %v", err)
	}
	if p.TagsIssued() != 1 {
		t.Errorf("TagsIssued = %d", p.TagsIssued())
	}

	// Client stores the registration and unwraps the content key.
	if err := client.StoreRegistration(p.Prefix(), resp); err != nil {
		t.Fatal(err)
	}
	if got := client.TagFor(p.Prefix(), ap, now); got == nil {
		t.Error("stored tag not found")
	}
	q, r := client.TagStats()
	if q != 1 || r != 1 {
		t.Errorf("tag stats Q=%d R=%d", q, r)
	}
}

// clientPublic extracts the client's verifying key for enrollment, by
// rebuilding the same deterministic signer.
func clientPublic(t *testing.T, c *Client, seed int64) pki.PublicKey {
	t.Helper()
	signer, err := pki.GenerateFast(rand.New(rand.NewSource(seed)), c.KeyLocator())
	if err != nil {
		t.Fatal(err)
	}
	return signer.Public()
}

func TestRegisterUnknownClientDropped(t *testing.T) {
	p, _ := newTestProvider(t, 4, time.Minute)
	client := newTestClient(t, 5, "/u/mallory/KEY/1")
	req, err := client.NewRegistrationRequest(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Register(req, testTime(1)); !errors.Is(err, ErrNotEnrolled) {
		t.Errorf("unenrolled register err = %v", err)
	}
}

func TestRegisterBadCredential(t *testing.T) {
	p, _ := newTestProvider(t, 6, time.Minute)
	client := newTestClient(t, 7, "/u/alice/KEY/1")
	p.Enroll(client.KeyLocator(), clientPublic(t, client, 7), 1)
	req, err := client.NewRegistrationRequest(0)
	if err != nil {
		t.Fatal(err)
	}
	req.Credential = append([]byte(nil), req.Credential...)
	req.Credential[0] ^= 0xff
	if _, err := p.Register(req, testTime(1)); !errors.Is(err, ErrBadCredential) {
		t.Errorf("bad credential err = %v", err)
	}
	// An attacker replaying the request with a different access path
	// also fails: the credential binds the path.
	req2, err := client.NewRegistrationRequest(AccessPathOf("home"))
	if err != nil {
		t.Fatal(err)
	}
	req2.AccessPath = AccessPathOf("elsewhere")
	if _, err := p.Register(req2, testTime(1)); !errors.Is(err, ErrBadCredential) {
		t.Errorf("re-pathed request err = %v", err)
	}
}

func TestRevocationStopsFreshTags(t *testing.T) {
	p, _ := newTestProvider(t, 8, 10*time.Second)
	client := newTestClient(t, 9, "/u/alice/KEY/1")
	p.Enroll(client.KeyLocator(), clientPublic(t, client, 9), 1)
	req, err := client.NewRegistrationRequest(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Register(req, testTime(1)); err != nil {
		t.Fatal(err)
	}
	p.Unenroll(client.KeyLocator())
	if p.Enrolled(client.KeyLocator()) {
		t.Error("revoked client still enrolled")
	}
	req2, err := client.NewRegistrationRequest(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Register(req2, testTime(2)); !errors.Is(err, ErrNotEnrolled) {
		t.Errorf("revoked register err = %v", err)
	}
}

func TestPublishAndDecrypt(t *testing.T) {
	p, reg := newTestProvider(t, 10, time.Minute)
	client := newTestClient(t, 11, "/u/alice/KEY/1")
	p.Enroll(client.KeyLocator(), clientPublic(t, client, 11), 2)
	now := testTime(1)

	plain := []byte("chunk payload bytes")
	content, err := p.Publish(names.MustParse("/prov0/obj0/c0"), 2, plain)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(content.Payload, plain) {
		t.Error("private content published in cleartext")
	}
	if err := VerifyContent(reg, content); err != nil {
		t.Errorf("content signature invalid: %v", err)
	}

	// Tampered content is detected (paper §6.B cache-poisoning defence).
	tampered := *content
	tampered.Payload = append([]byte(nil), content.Payload...)
	tampered.Payload[0] ^= 1
	if err := VerifyContent(reg, &tampered); err == nil {
		t.Error("tampered content passed verification")
	}

	// The registered client can decrypt.
	req, err := client.NewRegistrationRequest(0)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := p.Register(req, now)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.StoreRegistration(p.Prefix(), resp); err != nil {
		t.Fatal(err)
	}
	got, err := client.Decrypt(p.Prefix(), content)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plain) {
		t.Error("decrypted payload mismatch")
	}

	// A client without the content key cannot decrypt.
	outsider := newTestClient(t, 12, "/u/eve/KEY/1")
	if _, err := outsider.Decrypt(p.Prefix(), content); err == nil {
		t.Error("outsider decrypted private content")
	}
}

func TestPublishPublicContent(t *testing.T) {
	p, _ := newTestProvider(t, 13, time.Minute)
	plain := []byte("open data")
	content, err := p.Publish(names.MustParse("/prov0/open/c0"), Public, plain)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(content.Payload, plain) {
		t.Error("public content should be cleartext")
	}
	anyone := newTestClient(t, 14, "/u/anon/KEY/1")
	got, err := anyone.Decrypt(p.Prefix(), content)
	if err != nil || !bytes.Equal(got, plain) {
		t.Errorf("public decrypt: %v", err)
	}
}

func TestPublishOutsidePrefixRejected(t *testing.T) {
	p, _ := newTestProvider(t, 15, time.Minute)
	if _, err := p.Publish(names.MustParse("/other/obj/c0"), 1, []byte("x")); err == nil {
		t.Error("publish outside prefix accepted")
	}
}

func TestClientTagForExpiryAndMobility(t *testing.T) {
	p, _ := newTestProvider(t, 16, 10*time.Second)
	client := newTestClient(t, 17, "/u/alice/KEY/1")
	p.Enroll(client.KeyLocator(), clientPublic(t, client, 17), 1)
	home := AccessPathOf("ap-home")
	req, err := client.NewRegistrationRequest(home)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := p.Register(req, testTime(100))
	if err != nil {
		t.Fatal(err)
	}
	if err := client.StoreRegistration(p.Prefix(), resp); err != nil {
		t.Fatal(err)
	}
	if client.TagFor(p.Prefix(), home, testTime(105)) == nil {
		t.Error("fresh tag should be usable")
	}
	// Expired: client must re-register.
	if client.TagFor(p.Prefix(), home, testTime(111)) != nil {
		t.Error("expired tag should not be returned")
	}
	// Moved: "a mobile client needs to request a new tag every time she
	// moves to a new location" (§4.A).
	if client.TagFor(p.Prefix(), AccessPathOf("ap-away"), testTime(105)) != nil {
		t.Error("tag should not be usable from a new location")
	}
	// Unknown provider.
	if client.TagFor(names.MustParse("/prov9"), home, testTime(105)) != nil {
		t.Error("tag for unknown provider")
	}
}

func TestRegistrationNoncesDiffer(t *testing.T) {
	client := newTestClient(t, 18, "/u/alice/KEY/1")
	r1, err := client.NewRegistrationRequest(0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := client.NewRegistrationRequest(0)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Nonce == r2.Nonce {
		t.Error("registration nonces must differ")
	}
	if bytes.Equal(r1.Credential, r2.Credential) {
		t.Error("credentials over different nonces must differ")
	}
}
