package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/obs"
	"github.com/tactic-icn/tactic/internal/pki"
)

// Validation errors, one per threat-model scenario (paper §3.C) plus the
// pre-check outcomes of Protocol 1.
var (
	// ErrNoTag: a request for private content carries no tag
	// (threat (a)).
	ErrNoTag = errors.New("core: request carries no tag")
	// ErrTagExpired: T_e < T_current (threat (c), Protocol 1 line 3).
	ErrTagExpired = errors.New("core: tag expired")
	// ErrTagForged: the provider signature does not verify (threat (b)).
	ErrTagForged = errors.New("core: tag signature invalid")
	// ErrPrefixMismatch: the tag's provider prefix does not match the
	// requested content's prefix (Protocol 1 line 1 — prevents using
	// provider A's tag to fetch provider B's content).
	ErrPrefixMismatch = errors.New("core: tag provider prefix does not match content name")
	// ErrAccessPathMismatch: the request's accumulated access path does
	// not match AP_u in the tag (threat (e), Protocol 2 line 1).
	ErrAccessPathMismatch = errors.New("core: access path mismatch")
	// ErrInsufficientLevel: AL_D > AL_u (threat (d), Protocol 1 line 8).
	ErrInsufficientLevel = errors.New("core: insufficient access level")
	// ErrProviderKeyMismatch: the content's provider key locator differs
	// from the tag's (Protocol 1 line 10 — defeats prefix hijack by a
	// malicious provider, paper §6.B).
	ErrProviderKeyMismatch = errors.New("core: provider key locator mismatch")
	// ErrTagRevoked: the tag's ID is in the router's pushed revocation
	// set — explicitly revoked by the issuance control plane before its
	// T_e (the lifecycle extension; TACTIC's native revocation is expiry
	// only).
	ErrTagRevoked = errors.New("core: tag revoked")
	// ErrOverload: the router shed the request instead of verifying its
	// tag because the arrival face exceeded its verification budget (the
	// admission-control extension). Unlike every other reason this is not
	// a verdict on the tag — the signature was never checked — it is an
	// explicit local denial so the client can back off and retry instead
	// of timing out against a silent drop.
	ErrOverload = errors.New("core: verification shed under overload")
)

// DefaultVerifyBudget is the default per-face cap on Interests parked or
// in flight in the verification pool. One face can hold at most this
// many unverified tags pending at once; beyond it the router sheds with
// ErrOverload. At ~100 µs per P-256 verification a budget of 64 bounds
// the work one face can queue to ~6 ms — far below a reader stall, far
// above what any honest client pipeline needs (tags repeat, so steady
// state is Bloom-filter hits).
const DefaultVerifyBudget = 64

// Wire codes for NACK reasons (the NackReason TLV payload). 0 is
// reserved for "unspecified/other" so an absent or unknown code decodes
// to a non-nil generic reason on a NACK.
const (
	reasonCodeOther uint8 = iota
	reasonCodeNoTag
	reasonCodeExpired
	reasonCodeForged
	reasonCodePrefixMismatch
	reasonCodeAccessPath
	reasonCodeLevel
	reasonCodeKeyMismatch
	reasonCodeRevoked
	reasonCodeOverload
)

// ErrDenied is the catch-all NACK reason: a denial whose specific cause
// was not (or could not be) carried on the wire.
var ErrDenied = errors.New("core: request denied")

// ReasonCode maps a validation error to its 1-byte wire code for the
// NackReason TLV. Unknown errors (and nil) map to 0.
func ReasonCode(err error) uint8 {
	switch {
	case err == nil:
		return reasonCodeOther
	case errors.Is(err, ErrNoTag):
		return reasonCodeNoTag
	case errors.Is(err, ErrTagExpired):
		return reasonCodeExpired
	case errors.Is(err, ErrTagForged):
		return reasonCodeForged
	case errors.Is(err, ErrPrefixMismatch):
		return reasonCodePrefixMismatch
	case errors.Is(err, ErrAccessPathMismatch):
		return reasonCodeAccessPath
	case errors.Is(err, ErrInsufficientLevel):
		return reasonCodeLevel
	case errors.Is(err, ErrProviderKeyMismatch):
		return reasonCodeKeyMismatch
	case errors.Is(err, ErrTagRevoked):
		return reasonCodeRevoked
	case errors.Is(err, ErrOverload):
		return reasonCodeOverload
	}
	return reasonCodeOther
}

// ReasonFromCode maps a wire code back to the canonical sentinel error.
// Unknown codes (including 0) map to ErrDenied so a decoded NACK always
// carries a non-nil reason.
func ReasonFromCode(code uint8) error {
	switch code {
	case reasonCodeNoTag:
		return ErrNoTag
	case reasonCodeExpired:
		return ErrTagExpired
	case reasonCodeForged:
		return ErrTagForged
	case reasonCodePrefixMismatch:
		return ErrPrefixMismatch
	case reasonCodeAccessPath:
		return ErrAccessPathMismatch
	case reasonCodeLevel:
		return ErrInsufficientLevel
	case reasonCodeKeyMismatch:
		return ErrProviderKeyMismatch
	case reasonCodeRevoked:
		return ErrTagRevoked
	case reasonCodeOverload:
		return ErrOverload
	}
	return ErrDenied
}

// ContentMeta is the access-control metadata a provider embeds in every
// content packet, "included in the content's packets and signed by the
// provider to guarantee its integrity and provenance" (§3.A).
type ContentMeta struct {
	// Name is the full content name.
	Name names.Name
	// Level is AL_D; Public (the paper's NULL) marks open content.
	Level AccessLevel
	// ProviderKey is Pub_p^D, the publishing provider's key locator.
	ProviderKey names.Name
}

// ValidatorStats counts a validator's outcomes: total signature
// verifications (Fig. 7's "V" series) plus failures split by cause, the
// per-enforcement-point measurability the deployment surveys ask for.
type ValidatorStats struct {
	// Verifications counts signature checks performed (pass or fail).
	Verifications uint64
	// Missing counts nil-tag rejections (threat (a)).
	Missing uint64
	// Expired counts freshness rejections (threat (c)).
	Expired uint64
	// Forged counts signature rejections (threat (b)).
	Forged uint64
}

// Failures returns the total rejected validations.
func (s ValidatorStats) Failures() uint64 { return s.Missing + s.Expired + s.Forged }

// TagValidator performs full tag validation — freshness plus signature
// verification through a PKI verifier — and counts signature
// verifications, the paper's most expensive router operation (Fig. 7's
// "V" series).
//
// TagValidator is safe for concurrent use. Concurrent Validate calls for
// the SAME tag (by cache key) are collapsed through a singleflight: one
// caller performs the signature verification while the others wait and
// share its outcome, so a burst of Interests carrying one not-yet-cached
// tag costs a single verification instead of one per packet. Only the
// performing caller increments Verifications (and Forged on failure);
// waiters return the shared result uncounted, keeping the counter equal
// to the number of signature checks actually executed. The live
// forwarder groups same-tag Interests in its verify pool before they
// reach the validator, so there the singleflight serves only the inline
// callers (aggregated PIT records); the simulator and the producer
// verify inline throughout.
type TagValidator struct {
	registry pki.Verifier

	verifications atomic.Uint64
	missing       atomic.Uint64
	expired       atomic.Uint64
	forged        atomic.Uint64
	inflight      atomic.Int64

	// verifySeconds, when set, receives the latency of every signature
	// verification performed (waiters collapsed by the singleflight are
	// not re-observed).
	verifySeconds atomic.Pointer[obs.Histogram]

	mu    sync.Mutex // guards calls
	calls map[string]*verifyCall
}

// verifyCall is one in-flight signature verification.
type verifyCall struct {
	done chan struct{}
	err  error
}

// NewTagValidator creates a validator over the given trust registry.
func NewTagValidator(registry pki.Verifier) *TagValidator {
	return &TagValidator{registry: registry, calls: make(map[string]*verifyCall)}
}

// SetVerifyHistogram attaches a latency histogram observing each
// signature verification (nil detaches). Safe to call concurrently.
func (v *TagValidator) SetVerifyHistogram(h *obs.Histogram) { v.verifySeconds.Store(h) }

// Validate checks the tag end to end: presence, expiry, and the
// provider's signature. This is the expensive operation that Bloom
// filters amortise; see the type comment for how concurrent duplicate
// validations are collapsed.
func (v *TagValidator) Validate(t *Tag, now time.Time) error {
	return v.ValidateCtx(context.Background(), t, now)
}

// ValidateCtx is Validate with cancellation for waiters collapsed onto
// another caller's in-flight verification. A waiter whose ctx is
// canceled detaches immediately and returns ctx.Err(); the shared call
// it was waiting on is unaffected — the performing caller still
// completes, publishes the result, and clears the slot, so a canceled
// waiter neither leaks the call entry nor consumes the outcome other
// waiters share. Cancellation does not abort the performing caller's
// own signature check (the result is shared state; aborting it would
// poison every concurrent waiter).
func (v *TagValidator) ValidateCtx(ctx context.Context, t *Tag, now time.Time) error {
	if err := v.CheckFresh(t, now); err != nil {
		return err
	}
	key := string(t.CacheKey())
	v.mu.Lock()
	if c, ok := v.calls[key]; ok {
		v.mu.Unlock()
		select {
		case <-c.done:
			return c.err
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	c := &verifyCall{done: make(chan struct{})}
	v.calls[key] = c
	v.mu.Unlock()

	v.verifications.Add(1)
	v.inflight.Add(1)
	start := time.Now()
	err := v.registry.Verify(t.ProviderKey, t.SigningBytes(), t.Signature)
	if h := v.verifySeconds.Load(); h != nil {
		h.Observe(time.Since(start).Seconds())
	}
	v.inflight.Add(-1)
	if err != nil {
		v.forged.Add(1)
		c.err = fmt.Errorf("%w: %w", ErrTagForged, err)
	}

	v.mu.Lock()
	delete(v.calls, key)
	v.mu.Unlock()
	close(c.done)
	return c.err
}

// CheckFresh is the cheap half of Validate — presence and expiry,
// counted as Validate counts them — for a caller that takes the
// signature outcome from another request's validation of the same tag
// (the live verify pool's coalesced Interests).
func (v *TagValidator) CheckFresh(t *Tag, now time.Time) error {
	if t == nil {
		v.missing.Add(1)
		return ErrNoTag
	}
	if t.Expired(now) {
		v.expired.Add(1)
		return fmt.Errorf("%w: at %s", ErrTagExpired, t.Expiry)
	}
	return nil
}

// Verifications returns the number of signature verifications performed.
func (v *TagValidator) Verifications() uint64 { return v.verifications.Load() }

// InFlight returns the number of signature verifications currently
// executing — the /metrics in-flight gauge.
func (v *TagValidator) InFlight() int64 { return v.inflight.Load() }

// Stats returns a snapshot of the validator's outcome counters.
func (v *TagValidator) Stats() ValidatorStats {
	return ValidatorStats{
		Verifications: v.verifications.Load(),
		Missing:       v.missing.Load(),
		Expired:       v.expired.Load(),
		Forged:        v.forged.Load(),
	}
}

// ReasonLabel maps a validation or pre-check error to a short, stable
// identifier suitable as a metric label or trace annotation. Unknown
// errors map to "other"; nil maps to "".
func ReasonLabel(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrNoTag):
		return "no_tag"
	case errors.Is(err, ErrTagExpired):
		return "expired"
	case errors.Is(err, ErrTagForged):
		return "forged"
	case errors.Is(err, ErrPrefixMismatch):
		return "prefix_mismatch"
	case errors.Is(err, ErrAccessPathMismatch):
		return "access_path"
	case errors.Is(err, ErrInsufficientLevel):
		return "level"
	case errors.Is(err, ErrProviderKeyMismatch):
		return "key_mismatch"
	case errors.Is(err, ErrTagRevoked):
		return "revoked"
	case errors.Is(err, ErrOverload):
		return "overload"
	}
	return "other"
}

// ReasonLabels lists every label ReasonLabel can produce for a non-nil
// error, so instrumentation can pre-create one counter per reason.
func ReasonLabels() []string {
	return []string{"no_tag", "expired", "forged", "prefix_mismatch", "access_path", "level", "key_mismatch", "revoked", "overload", "other"}
}

// PreCheckEdge is the edge-router half of Protocol 1: a cheap filter
// applied before any Bloom-filter or signature work. It rejects tags
// whose provider prefix does not cover the requested content and tags
// that are already expired.
func PreCheckEdge(t *Tag, contentName names.Name, now time.Time) error {
	if t == nil {
		return ErrNoTag
	}
	if !t.ProviderKey.ProviderPrefix().Equal(contentName.ProviderPrefix()) {
		return fmt.Errorf("%w: tag %s vs content %s",
			ErrPrefixMismatch, t.ProviderKey.ProviderPrefix(), contentName.ProviderPrefix())
	}
	if t.Expired(now) {
		return fmt.Errorf("%w: at %s", ErrTagExpired, t.Expiry)
	}
	return nil
}

// PreCheckContent is the content-router half of Protocol 1: the tag's
// access level must satisfy the content's, and the tag's provider key
// locator must match the content's.
func PreCheckContent(t *Tag, meta ContentMeta) error {
	if t == nil {
		return ErrNoTag
	}
	if !t.Level.Satisfies(meta.Level) {
		return fmt.Errorf("%w: content %d > tag %d", ErrInsufficientLevel, meta.Level, t.Level)
	}
	if !t.ProviderKey.Equal(meta.ProviderKey) {
		return fmt.Errorf("%w: content %s vs tag %s", ErrProviderKeyMismatch, meta.ProviderKey, t.ProviderKey)
	}
	return nil
}
