package core

import (
	"errors"
	"fmt"
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
	// set — explicitly revoked by its provider (Provider.Revoke) before its
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

// ErrDenied is the catch-all NACK reason: a denial whose specific cause
// was not (or could not be) carried on the wire.
var ErrDenied = errors.New("core: request denied")

// reasons is the one NACK-reason vocabulary, shared by the wire codec,
// the live metrics and traces, and the simulator's drop keys. The index
// is the NackReason TLV's 1-byte wire code, so entries are only ever
// appended. Code 0 is the catch-all: an absent or unknown code decodes
// to ErrDenied, so a decoded NACK always carries a non-nil reason, and
// an error wrapping none of the sentinels encodes as 0 and is labelled
// "other".
var reasons = [...]struct {
	err   error
	label string
}{
	0: {ErrDenied, "other"},
	1: {ErrNoTag, "no_tag"},
	2: {ErrTagExpired, "expired"},
	3: {ErrTagForged, "forged"},
	4: {ErrPrefixMismatch, "prefix_mismatch"},
	5: {ErrAccessPathMismatch, "access_path"},
	6: {ErrInsufficientLevel, "level"},
	7: {ErrProviderKeyMismatch, "key_mismatch"},
	8: {ErrTagRevoked, "revoked"},
	9: {ErrOverload, "overload"},
}

// ReasonCode maps a validation error to its 1-byte wire code for the
// NackReason TLV. Unknown errors (and nil) map to 0.
func ReasonCode(err error) uint8 {
	if err == nil {
		return 0
	}
	for code := 1; code < len(reasons); code++ {
		if errors.Is(err, reasons[code].err) {
			return uint8(code)
		}
	}
	return 0
}

// ReasonFromCode maps a wire code back to the canonical sentinel error.
// Unknown codes (including 0) map to ErrDenied.
func ReasonFromCode(code uint8) error {
	if int(code) < len(reasons) {
		return reasons[code].err
	}
	return ErrDenied
}

// ReasonLabel maps a validation or pre-check error to a short, stable
// identifier suitable as a metric label, trace annotation or drop key.
// Unknown errors map to "other"; nil maps to "".
func ReasonLabel(err error) string {
	if err == nil {
		return ""
	}
	return reasons[ReasonCode(err)].label
}

// ReasonLabels lists every label ReasonLabel can produce for a non-nil
// error, so instrumentation can pre-create one counter per reason.
func ReasonLabels() []string {
	out := make([]string, len(reasons))
	for i, r := range reasons {
		out[i] = r.label
	}
	return out
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

// TagValidator performs full tag validation — freshness plus signature
// verification through a PKI verifier — and counts signature
// verifications, the paper's most expensive router operation (Fig. 7's
// "V" series).
//
// TagValidator is safe for concurrent use, and every Validate that gets
// past the freshness check performs (and counts) one signature check:
// Verifications is the number executed. Deduplicating concurrent checks
// of one tag is the caller's business and happens in one place, the live
// forwarder's verify pool, which groups same-tag Interests before they
// reach the validator; the simulator is single-threaded, and the inline
// callers (aggregated PIT records, the producer) verify per call.
type TagValidator struct {
	registry pki.Verifier

	verifications atomic.Uint64
	missing       atomic.Uint64
	expired       atomic.Uint64
	forged        atomic.Uint64
	inflight      atomic.Int64

	// verifySeconds, when set, receives the latency of every signature
	// verification performed.
	verifySeconds atomic.Pointer[obs.Histogram]
}

// NewTagValidator creates a validator over the given trust registry.
func NewTagValidator(registry pki.Verifier) *TagValidator {
	return &TagValidator{registry: registry}
}

// SetVerifyHistogram attaches a latency histogram observing each
// signature verification (nil detaches). Safe to call concurrently.
func (v *TagValidator) SetVerifyHistogram(h *obs.Histogram) { v.verifySeconds.Store(h) }

// Validate checks the tag end to end: presence, expiry, and the
// provider's signature. This is the expensive operation that Bloom
// filters amortise.
func (v *TagValidator) Validate(t *Tag, now time.Time) error {
	if err := v.CheckFresh(t, now); err != nil {
		return err
	}
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
		if errors.Is(err, pki.ErrBadSignature) {
			return errBadSignature
		}
		return fmt.Errorf("%w: %w", ErrTagForged, err)
	}
	return nil
}

// errBadSignature is Validate's outcome for a signature that does not
// verify, the one an attacker minting tags reaches at will: wrapped once,
// not per forged tag.
var errBadSignature = fmt.Errorf("%w: %w", ErrTagForged, pki.ErrBadSignature)

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
		return ErrTagExpired
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

// PreCheckEdge is the edge-router half of Protocol 1: a cheap filter
// applied before any Bloom-filter or signature work. It rejects tags
// whose provider prefix does not cover the requested content and tags
// that are already expired.
//
// The cheap denials (CheckFresh's too) return the bare sentinel: a peer
// can trigger them at line rate, and a NACK carries only the reason's
// 1-byte code, never the detail a formatted error would allocate for.
func PreCheckEdge(t *Tag, contentName names.Name, now time.Time) error {
	if t == nil {
		return ErrNoTag
	}
	if !t.ProviderKey.ProviderPrefix().Equal(contentName.ProviderPrefix()) {
		return ErrPrefixMismatch
	}
	if t.Expired(now) {
		return ErrTagExpired
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
		return ErrInsufficientLevel
	}
	if !t.ProviderKey.Equal(meta.ProviderKey) {
		return ErrProviderKeyMismatch
	}
	return nil
}
