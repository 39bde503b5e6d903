package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/names"
)

// gateVerifier is a pki.Verifier whose Verify blocks until released,
// counting calls — it makes the validator's singleflight observable.
type gateVerifier struct {
	started chan struct{} // closed-ish: receives one token per Verify entry
	release chan struct{}
	calls   atomic.Int32
	err     error
}

func (g *gateVerifier) Verify(locator names.Name, msg, sig []byte) error {
	g.calls.Add(1)
	if g.started != nil {
		g.started <- struct{}{}
	}
	if g.release != nil {
		<-g.release
	}
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

// TestValidatorSingleflightExactlyOnce holds one verification open while
// N more Validate calls for the same tag arrive; they must all wait on
// the in-flight call and share its outcome, for exactly one signature
// check in total.
func TestValidatorSingleflightExactlyOnce(t *testing.T) {
	g := &gateVerifier{started: make(chan struct{}, 1), release: make(chan struct{})}
	v := NewTagValidator(g)
	tag := testTag("alice")
	now := time.Now()

	leaderDone := make(chan error, 1)
	go func() { leaderDone <- v.Validate(tag, now) }()
	<-g.started // the leader is inside Verify and holds the call open

	const waiters = 16
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = v.Validate(tag, now)
		}(i)
	}

	// Give the waiters time to park on the in-flight call, then let the
	// leader finish.
	time.Sleep(50 * time.Millisecond)
	close(g.release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader Validate: %v", err)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	if got := g.calls.Load(); got != 1 {
		t.Fatalf("verifier called %d times, want exactly 1", got)
	}
	if got := v.Verifications(); got != 1 {
		t.Fatalf("Verifications() = %d, want 1 (waiters must not be counted)", got)
	}
	if got := v.InFlight(); got != 0 {
		t.Fatalf("InFlight() = %d after quiescence, want 0", got)
	}
}

// TestValidatorDistinctTagsNotCollapsed checks the singleflight keys on
// the tag's cache key: different tags verify independently.
func TestValidatorDistinctTagsNotCollapsed(t *testing.T) {
	g := &gateVerifier{}
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
}

// TestValidatorFailureNotCached checks that a failed verification is
// shared with concurrent waiters but never cached: the next Validate
// after the call retires re-verifies. (Forged tags must keep failing
// loudly, not be remembered as cheap rejections an attacker could probe.)
func TestValidatorFailureNotCached(t *testing.T) {
	g := &gateVerifier{err: errors.New("bad signature")}
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
