package core

import (
	crand "crypto/rand"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/pki"
)

// countVerifier is a pki.Verifier that counts its calls and answers err.
type countVerifier struct {
	calls atomic.Int32
	err   error
}

func (g *countVerifier) Verify(locator names.Name, msg, sig []byte) error {
	g.calls.Add(1)
	return g.err
}

func testTag(user string) *Tag {
	return &Tag{
		ProviderKey: names.MustNew("prov0", "KEY", "1"),
		Level:       2,
		ClientKey:   names.MustNew("users", user, "KEY", "1"),
		Expiry:      time.Now().Add(time.Hour),
		Signature:   []byte("sig-" + user),
	}
}

// TestValidatorDistinctTagsNotCollapsed checks that every Validate is a
// signature check of its own, counted once and finished on return.
func TestValidatorDistinctTagsNotCollapsed(t *testing.T) {
	g := &countVerifier{}
	v := NewTagValidator(g)
	now := time.Now()
	if err := v.Validate(testTag("alice"), now); err != nil {
		t.Fatal(err)
	}
	if err := v.Validate(testTag("bob"), now); err != nil {
		t.Fatal(err)
	}
	if got := g.calls.Load(); got != 2 {
		t.Fatalf("verifier called %d times for two distinct tags, want 2", got)
	}
	if got := v.Verifications(); got != 2 {
		t.Fatalf("Verifications() = %d, want 2: one per signature check executed", got)
	}
	if got := v.InFlight(); got != 0 {
		t.Fatalf("InFlight() = %d after quiescence, want 0", got)
	}
}

// TestValidatorFailureNotCached checks that a failed verification is
// never cached: the next Validate re-verifies. (Forged tags must keep
// failing loudly, not be remembered as cheap rejections an attacker
// could probe.)
func TestValidatorFailureNotCached(t *testing.T) {
	g := &countVerifier{err: errors.New("bad signature")}
	v := NewTagValidator(g)
	tag := testTag("mallory")
	now := time.Now()

	if err := v.Validate(tag, now); !errors.Is(err, ErrTagForged) {
		t.Fatalf("err = %v, want ErrTagForged", err)
	}
	if err := v.Validate(tag, now); !errors.Is(err, ErrTagForged) {
		t.Fatalf("second err = %v, want ErrTagForged", err)
	}
	if got := g.calls.Load(); got != 2 {
		t.Fatalf("verifier called %d times, want 2 (failures are not cached)", got)
	}
	if got := v.Stats().Forged; got != 2 {
		t.Fatalf("Forged = %d, want 2", got)
	}
}

// TestReasonVocabulary pins the one reason table: every sentinel owns a
// wire code that decodes back to it and a label no other sentinel has,
// wrapped errors resolve to their sentinel, and everything else falls
// to the catch-all.
func TestReasonVocabulary(t *testing.T) {
	sentinels := []error{
		ErrDenied, ErrNoTag, ErrTagExpired, ErrTagForged, ErrPrefixMismatch, ErrAccessPathMismatch,
		ErrInsufficientLevel, ErrProviderKeyMismatch, ErrTagRevoked, ErrOverload,
	}
	if len(sentinels) != len(reasons) {
		t.Fatalf("test lists %d sentinels, the table %d", len(sentinels), len(reasons))
	}
	codes, labels := map[uint8]error{}, map[string]error{}
	for _, err := range sentinels {
		code, label := ReasonCode(err), ReasonLabel(err)
		if got := ReasonFromCode(code); got != err {
			t.Errorf("%v: code %d decodes to %v", err, code, got)
		}
		if prev, dup := codes[code]; dup {
			t.Errorf("%v and %v share wire code %d", prev, err, code)
		}
		if prev, dup := labels[label]; dup || label == "" {
			t.Errorf("%v: label %q empty or shared with %v", err, label, prev)
		}
		codes[code], labels[label] = err, err
		wrapped := fmt.Errorf("%w: detail", err)
		if ReasonCode(wrapped) != code || ReasonLabel(wrapped) != label {
			t.Errorf("wrapped %v resolves to (%d, %q), want (%d, %q)", err, ReasonCode(wrapped), ReasonLabel(wrapped), code, label)
		}
	}
	if got := ReasonLabels(); len(got) != len(labels) {
		t.Errorf("ReasonLabels lists %d labels, want %d", len(got), len(labels))
	} else {
		for _, l := range got {
			if labels[l] == nil {
				t.Errorf("ReasonLabels lists %q, which no sentinel owns", l)
			}
		}
	}
	if ReasonCode(nil) != 0 || ReasonLabel(nil) != "" {
		t.Error("nil must encode as 0 and carry no label")
	}
	if stray := errors.New("stray"); ReasonCode(stray) != 0 || ReasonLabel(stray) != "other" {
		t.Error("an error outside the vocabulary must fall to the catch-all")
	}
	if ReasonFromCode(200) != ErrDenied {
		t.Error("an unknown wire code must decode to ErrDenied")
	}
}

// TestValidateForgedAllocs: a forged tag, the verification an attacker
// reaches at will, allocates what the signature scheme allocates and
// nothing besides — the signed bytes are the decoded tag's own, the
// outcome one preallocated error — and still reads as forged (and as a
// bad signature).
func TestValidateForgedAllocs(t *testing.T) {
	prov, err := pki.GenerateECDSA(crand.Reader, names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	rogue, err := pki.GenerateECDSA(crand.Reader, prov.Locator()) // claims the genuine locator
	if err != nil {
		t.Fatal(err)
	}
	reg := pki.NewRegistry()
	if err := reg.Register(prov.Locator(), prov.Public()); err != nil {
		t.Fatal(err)
	}
	issued, err := IssueTag(rogue, names.MustParse("/users/mallory/KEY/1"), 2, 0, time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	forged, err := DecodeTag(issued.Encode())
	if err != nil {
		t.Fatal(err)
	}
	v := NewTagValidator(reg)
	now := time.Now()
	if err := v.Validate(forged, now); !errors.Is(err, ErrTagForged) || !errors.Is(err, pki.ErrBadSignature) {
		t.Fatalf("forged tag: err = %v, want ErrTagForged wrapping pki.ErrBadSignature", err)
	}
	scheme := testing.AllocsPerRun(200, func() {
		reg.Verify(forged.ProviderKey, forged.SigningBytes(), forged.Signature) //nolint:errcheck // forged
	})
	if allocs := testing.AllocsPerRun(200, func() {
		v.Validate(forged, now) //nolint:errcheck // forged
	}); allocs > scheme {
		t.Errorf("validating a forged tag allocates %.1f/op, the scheme alone %.1f", allocs, scheme)
	}
}

// TestCheapDenialsAllocs: the cheap checks a peer can fail at line rate
// — expiry, prefix, level, key locator — deny with the bare sentinel and
// allocate nothing.
func TestCheapDenialsAllocs(t *testing.T) {
	v := NewTagValidator(&countVerifier{})
	tag := testTag("eve")
	late := tag.Expiry.Add(time.Second)
	other := names.MustNew("prov1", "obj")
	meta := ContentMeta{Name: names.MustNew("prov0", "obj"), Level: 3, ProviderKey: tag.ProviderKey}
	checks := []struct {
		name string
		run  func() error
		want error
	}{
		{"CheckFresh", func() error { return v.CheckFresh(tag, late) }, ErrTagExpired},
		{"PreCheckEdge prefix", func() error { return PreCheckEdge(tag, other, time.Time{}) }, ErrPrefixMismatch},
		{"PreCheckEdge expiry", func() error { return PreCheckEdge(tag, meta.Name, late) }, ErrTagExpired},
		{"PreCheckContent level", func() error { return PreCheckContent(tag, meta) }, ErrInsufficientLevel},
		{"PreCheckContent key", func() error {
			return PreCheckContent(tag, ContentMeta{Name: meta.Name, Level: 1, ProviderKey: other})
		}, ErrProviderKeyMismatch},
	}
	for _, c := range checks {
		if err := c.run(); err != c.want {
			t.Errorf("%s: err = %v, want the bare %v", c.name, err, c.want)
		}
		if allocs := testing.AllocsPerRun(100, func() { c.run() }); allocs != 0 { //nolint:errcheck // denied
			t.Errorf("%s: a denial allocates %.1f/op, want 0", c.name, allocs)
		}
	}
}
