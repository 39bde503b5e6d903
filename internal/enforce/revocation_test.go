package enforce

import (
	"errors"
	"testing"

	"github.com/tactic-icn/tactic/internal/core"
)

// TestRevokedTagDeniedBeforeBF pins the pre-BF revocation semantics:
// once a tag's ID is in the router's revocation set it is denied on
// every enforcement path, even though its bits are still set in the
// Bloom filter (the pre-BF check is what makes revocation effective
// without waiting for T_e).
func TestRevokedTagDeniedBeforeBF(t *testing.T) {
	r, prov := testRouter(t, 62, core.Config{EdgeValidateOnMiss: true})
	now := testTime(10)
	tag := issueTestTag(t, prov, 2, 0, testTime(1000))
	meta := aggMeta(prov)

	// Validate once: the tag lands in the BF.
	if d := r.EdgeOnInterest(tag, 0, testContentName, now); d.Denied() || !d.Verified {
		t.Fatalf("initial interest = %+v", d)
	}
	if d := r.EdgeOnInterest(tag, 0, testContentName, now); !d.BFHit {
		t.Fatalf("expected BF hit, got %+v", d)
	}

	r.Revocations().Revoke(tag.ID())

	if d := r.EdgeOnInterest(tag, 0, testContentName, now); !d.Denied() || !errors.Is(d.Reason, core.ErrTagRevoked) {
		t.Fatalf("edge did not deny revoked tag: %+v", d)
	}
	if d := r.ContentOnInterest(tag, meta, 0, now); !d.Denied() || !errors.Is(d.Reason, core.ErrTagRevoked) {
		t.Fatalf("content router did not deny revoked tag: %+v", d)
	}
	if d := r.ContentOnInterest(tag, meta, 0.5, now); !d.Denied() || !errors.Is(d.Reason, core.ErrTagRevoked) {
		t.Fatalf("content router honoured revoked tag behind F != 0: %+v", d)
	}
	if !r.aggregated(tag, meta, 0, now).Denied() {
		t.Fatal("aggregated edge path delivered to revoked tag")
	}
	if d := r.aggregated(tag, meta, 0, now); !d.Denied() || !errors.Is(d.Reason, core.ErrTagRevoked) {
		t.Fatalf("intermediate router honoured revoked tag: %+v", d)
	}
	if got := core.ReasonLabel(core.ErrTagRevoked); got != "revoked" {
		t.Fatalf("ReasonLabel = %q", got)
	}

	// The ablation knob restores TACTIC's original expiry-only
	// behaviour (and gives the conformance oracle its injectable bug).
	r2, prov2 := testRouter(t, 63, core.Config{DisableRevocationCheck: true, EdgeValidateOnMiss: true})
	tag2 := issueTestTag(t, prov2, 2, 0, testTime(1000))
	r2.Revocations().Revoke(tag2.ID())
	if d := r2.EdgeOnInterest(tag2, 0, testContentName, now); d.Denied() {
		t.Fatalf("DisableRevocationCheck still denied: %+v", d)
	}
}

// TestApplyRevocationReachesEngine pins the control-plane entry point:
// a pushed update applied through ApplyRevocation denies the named tags
// and reports version advancement exactly like the underlying set.
func TestApplyRevocationReachesEngine(t *testing.T) {
	for _, scheme := range []core.Scheme{core.SchemeTACTIC, core.SchemeIBAC} {
		r, prov := testRouter(t, 70, core.Config{Scheme: scheme, EdgeValidateOnMiss: true})
		now := testTime(10)
		tag := issueTestTag(t, prov, 2, 0, testTime(1000))
		if d := r.EdgeOnInterest(tag, 0, testContentName, now); d.Denied() {
			t.Fatalf("%v: warm-up denied: %+v", scheme, d)
		}
		if !r.ApplyRevocation(1, false, []core.TagID{tag.ID()}) {
			t.Fatalf("%v: delta push rejected", scheme)
		}
		if r.ApplyRevocation(1, false, nil) {
			t.Fatalf("%v: duplicate version applied", scheme)
		}
		if d := r.EdgeOnInterest(tag, 0, testContentName, now); !d.Denied() || !errors.Is(d.Reason, core.ErrTagRevoked) {
			t.Fatalf("%v: pushed revocation not enforced: %+v", scheme, d)
		}
		// A full replacement un-revokes: the tag flows again.
		if !r.ApplyRevocation(2, true, nil) {
			t.Fatalf("%v: full push rejected", scheme)
		}
		if d := r.EdgeOnInterest(tag, 0, testContentName, now); d.Denied() {
			t.Fatalf("%v: cleared revocation still enforced: %+v", scheme, d)
		}
	}
}

// TestRotateEpoch pins rotation semantics: the current filter's stale
// bits move to the previous-epoch fallback (so already-validated tags
// are still vouched for without re-verification), the current filter
// starts clean, and stale epochs are ignored.
func TestRotateEpoch(t *testing.T) {
	r, prov := testRouter(t, 64, core.Config{EdgeValidateOnMiss: true, DisableAutoReset: true})
	now := testTime(10)
	tag := issueTestTag(t, prov, 2, 0, testTime(1000))
	if d := r.EdgeOnInterest(tag, 0, testContentName, now); !d.Verified {
		t.Fatalf("warm-up = %+v", d)
	}
	verifs := r.Validator().Verifications()

	if !r.RotateEpoch(1) {
		t.Fatal("rotation to epoch 1 rejected")
	}
	if r.Epoch() != 1 {
		t.Fatalf("epoch = %d", r.Epoch())
	}
	if r.RotateEpoch(1) || r.RotateEpoch(0) {
		t.Fatal("stale epoch accepted")
	}
	if r.Bloom().Count() != 0 {
		t.Fatalf("current filter not cleared: count=%d", r.Bloom().Count())
	}

	// The tag validated before the rotation still hits via the
	// previous-epoch fallback — no second signature verification — and
	// migrates into the current filter.
	if d := r.EdgeOnInterest(tag, 0, testContentName, now); !d.BFHit || d.Verified {
		t.Fatalf("post-rotation lookup = %+v", d)
	}
	if got := r.Validator().Verifications(); got != verifs {
		t.Fatalf("rotation forced a re-verification: %d -> %d", verifs, got)
	}
	if r.Bloom().Count() == 0 {
		t.Fatal("prev-epoch hit did not migrate into the current filter")
	}

	// After a second rotation the original epoch's bits are gone: the
	// migrated copy carries the tag forward instead.
	if !r.RotateEpoch(2) {
		t.Fatal("rotation to epoch 2 rejected")
	}
	if d := r.EdgeOnInterest(tag, 0, testContentName, now); !d.BFHit || d.Verified {
		t.Fatalf("lookup after second rotation = %+v", d)
	}
}

// TestRotationBoundsMeasuredFPP is the revocation-storm acceptance
// check: a storm of now-revoked tags leaves the filter's measured FPP
// above its bound, and an epoch rotation brings the live filter back
// under it.
func TestRotationBoundsMeasuredFPP(t *testing.T) {
	r, prov := testRouter(t, 65, core.Config{EdgeValidateOnMiss: true, DisableAutoReset: true})
	now := testTime(10)
	// Storm: validate far more tags than the filter's saturation point
	// (the test filter is sized for 500 elements at its max FPP).
	for i := 0; i < 900; i++ {
		tag := issueTestTag(t, prov, core.AccessLevel(i%7), core.AccessPath(uint64(i)), testTime(1000))
		if d := r.EdgeOnInterest(tag, core.AccessPath(uint64(i)), testContentName, now); d.Denied() {
			t.Fatalf("storm tag %d dropped: %v", i, d.Reason)
		}
	}
	maxFPP := r.Bloom().MaxFPP()
	if got := r.Bloom().MeasuredFPP(); got < maxFPP {
		t.Fatalf("storm did not saturate: measured %g < max %g", got, maxFPP)
	}
	if !r.RotateEpoch(1) {
		t.Fatal("rotation rejected")
	}
	if got := r.Bloom().MeasuredFPP(); got >= maxFPP {
		t.Fatalf("rotation left measured FPP at %g >= bound %g", got, maxFPP)
	}
}

func TestAccessPathAnyMatchesEverywhere(t *testing.T) {
	if !core.AccessPathAny.Matches(0) || !core.AccessPathAny.Matches(core.AccessPathOf("ap3", "relay7")) {
		t.Fatal("wildcard did not match")
	}
	// The wildcard lives in the tag, not the request: an ordinary tag
	// does not match a request that accumulated to all-ones.
	if core.AccessPath(7).Matches(core.AccessPathAny) {
		t.Fatal("ordinary tag matched wildcard request path")
	}
	r, prov := testRouter(t, 66, core.Config{EdgeValidateOnMiss: true})
	now := testTime(10)
	roam := issueTestTag(t, prov, 2, core.AccessPathAny, testTime(1000))
	for _, ap := range []core.AccessPath{0, core.AccessPathOf("e0"), core.AccessPathOf("e1")} {
		if d := r.EdgeOnInterest(roam, ap, testContentName, now); d.Denied() {
			t.Fatalf("roaming tag dropped at path %x: %v", uint64(ap), d.Reason)
		}
	}
}
