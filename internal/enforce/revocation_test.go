package enforce

import (
	"errors"
	"testing"
	"time"

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

	r.ApplyRevocation(1, []core.TagID{tag.ID()})

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
	r2.ApplyRevocation(1, []core.TagID{tag2.ID()})
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
		if !r.ApplyRevocation(1, []core.TagID{tag.ID()}) {
			t.Fatalf("%v: advancing push rejected", scheme)
		}
		if r.ApplyRevocation(1, nil) {
			t.Fatalf("%v: duplicate version applied", scheme)
		}
		if d := r.EdgeOnInterest(tag, 0, testContentName, now); !d.Denied() || !errors.Is(d.Reason, core.ErrTagRevoked) {
			t.Fatalf("%v: pushed revocation not enforced: %+v", scheme, d)
		}
		// The next push replaces the set: one without the ID un-revokes,
		// and the tag flows again.
		if !r.ApplyRevocation(2, nil) {
			t.Fatalf("%v: advancing push rejected", scheme)
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
	if r.Bloom().FillRatio() != 0 {
		t.Fatalf("current filter not cleared: fill=%g", r.Bloom().FillRatio())
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
	if r.Bloom().FillRatio() == 0 {
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

// TestRotationBoundsFPP is the revocation-storm acceptance check: a
// storm of now-revoked tags leaves the filter's FPP above its bound, and
// an epoch rotation brings the live filter back under it.
func TestRotationBoundsFPP(t *testing.T) {
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
	if got := r.Bloom().FPP(); got < maxFPP {
		t.Fatalf("storm did not saturate: FPP %g < max %g", got, maxFPP)
	}
	if !r.RotateEpoch(1) {
		t.Fatal("rotation rejected")
	}
	if got := r.Bloom().FPP(); got >= maxFPP {
		t.Fatalf("rotation left FPP at %g >= bound %g", got, maxFPP)
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

// TestRevokedThenExpiredDeniedAsExpired: a tag that is revoked and then
// passes its T_e is denied at the edge as expired, under both schemes,
// whether the router's set still names it or a later push has dropped
// it (a provider's push carries only the revoked grants still before
// T_e). Expiry is checked ahead of the revocation gate, so forgetting an
// expired ID opens nothing.
func TestRevokedThenExpiredDeniedAsExpired(t *testing.T) {
	te := testTime(50)
	rows := []struct {
		name    string
		at      time.Time
		version uint64 // the push applied before the request; 0 for none
		named   bool   // whether that push names the tag
		reason  string
	}{
		{"before T_e, revoked", testTime(45), 0, false, "revoked"},
		{"past T_e, still in the set", testTime(60), 0, false, "expired"},
		{"past T_e, dropped by the next push", testTime(60), 2, false, "expired"},
		{"past T_e, named by the next push", testTime(60), 2, true, "expired"},
	}
	for _, scheme := range []core.Scheme{core.SchemeTACTIC, core.SchemeIBAC} {
		for _, row := range rows {
			t.Run(scheme.String()+"/"+row.name, func(t *testing.T) {
				r, prov := testRouter(t, 71, core.Config{Scheme: scheme, EdgeValidateOnMiss: true})
				tag := issueTestTag(t, prov, 2, 0, te)
				if d := r.EdgeOnInterest(tag, 0, testContentName, testTime(40)); d.Denied() {
					t.Fatalf("warm-up denied: %+v", d)
				}
				if !r.ApplyRevocation(1, []core.TagID{tag.ID()}) {
					t.Fatal("revocation push rejected")
				}
				if row.version != 0 {
					var ids []core.TagID
					if row.named {
						ids = append(ids, tag.ID())
					}
					if !r.ApplyRevocation(row.version, ids) {
						t.Fatal("the next push was rejected")
					}
				}
				d := r.EdgeOnInterest(tag, 0, testContentName, row.at)
				if !d.Denied() || d.Stage != StageEdgeInterest || d.ReasonLabel() != row.reason {
					t.Fatalf("edge verdict %+v (reason %q), want denied at the edge as %q", d, d.ReasonLabel(), row.reason)
				}
			})
		}
	}
}
