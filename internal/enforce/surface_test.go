package enforce

import (
	"errors"
	"testing"

	"github.com/tactic-icn/tactic/internal/bloom"
	"github.com/tactic-icn/tactic/internal/core"
)

// Surface and parked-packet coverage for both backends: accessors, the
// stable string vocabularies, the revocation re-check of a parked
// request, and the unknown-op guards.

func TestRouterSurfaceBothSchemes(t *testing.T) {
	for _, scheme := range []core.Scheme{core.SchemeTACTIC, core.SchemeIBAC} {
		t.Run(scheme.String(), func(t *testing.T) {
			r, prov := testRouter(t, 1, core.Config{Scheme: scheme})
			if r.ID() != "r1" {
				t.Errorf("ID = %q", r.ID())
			}
			if _, ibac := r.engine.(*ibacEngine); ibac != (scheme == core.SchemeIBAC) {
				t.Errorf("engine %T for scheme %v", r.engine, scheme)
			}
			if r.Bloom() == nil || r.Validator() == nil || r.Revocations() == nil {
				t.Fatal("nil accessor")
			}
			if r.Epoch() != 0 {
				t.Errorf("fresh epoch = %d", r.Epoch())
			}
			if !r.RotateEpoch(1) || r.Epoch() != 1 {
				t.Errorf("rotation to epoch 1 failed (epoch=%d)", r.Epoch())
			}
			if r.RotateEpoch(1) {
				t.Error("duplicate epoch accepted")
			}

			// OnTagIssued: TACTIC pre-warms the cache with the fresh tag;
			// IBAC has nothing to cache until a (token, name) authorizes.
			tag := issueTestTag(t, prov, 1, 0, testTime(100))
			r.EdgeOnTagResponse(tag)
			wantWarm := scheme == core.SchemeTACTIC
			if got := r.Bloom().Contains(tag.CacheKey()); got != wantWarm {
				t.Errorf("cache contains issued tag = %t, want %t", got, wantWarm)
			}
		})
	}
}

func TestVerdictStrings(t *testing.T) {
	actions := map[Action]string{ActionDeliver: "deliver", ActionDeny: "deny", ActionVerify: "verify", Action(9): "action(?)"}
	for a, want := range actions {
		if a.String() != want {
			t.Errorf("Action(%d).String() = %q, want %q", a, a.String(), want)
		}
	}
	stages := map[Stage]string{StageNone: "none", StageEdgeInterest: "edge-interest", StageContent: "content", StageEdgeData: "edge-data", StageAggregate: "aggregate", Stage(9): "stage(?)"}
	for s, want := range stages {
		if s.String() != want {
			t.Errorf("Stage(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
	v := Verdict{Action: ActionDeny, Stage: StageEdgeInterest, Reason: core.ErrTagExpired}
	if v.NackCode() == 0 {
		t.Error("denial with reason has NACK code 0")
	}
	if v.ReasonLabel() != "expired" {
		t.Errorf("ReasonLabel = %q", v.ReasonLabel())
	}
	if (Verdict{}).ReasonLabel() != "" || (Verdict{}).NackCode() != 0 {
		t.Error("delivery verdict has a reason label or NACK code")
	}
}

// TestVerifyMissRevokedWhileParked: a revocation push lands while an
// Interest sits in the verification pool; VerifyMiss's revocation
// re-check must deny it before the signature work runs.
func TestVerifyMissRevokedWhileParked(t *testing.T) {
	for _, scheme := range []core.Scheme{core.SchemeTACTIC, core.SchemeIBAC} {
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := core.Config{Scheme: scheme, EdgeValidateOnMiss: true}
			r, prov := testRouter(t, 1, cfg)
			now := testTime(10)
			tag := issueTestTag(t, prov, 1, 0, testTime(100))

			d := r.EdgeOnInterestFast(tag, 0, testContentName, now)
			if !d.NeedsVerify() {
				t.Fatalf("fast edge path settled without verification: %+v", d)
			}
			if !r.ApplyRevocation(1, []core.TagID{tag.ID()}) {
				t.Fatal("revocation push rejected")
			}
			edgeIn := Input{Op: OpEdgeInterest, Tag: tag, Name: testContentName, Now: now}
			if d = r.VerifyMiss(edgeIn); !d.Denied() || !errors.Is(d.Reason, core.ErrTagRevoked) || d.Verified {
				t.Fatalf("parked edge Interest not denied as revoked: %+v", d)
			}
			// An Interest that waited on another's successful verification
			// is denied by the same gate.
			if d = r.VerifyShared(edgeIn, nil); !d.Denied() || !errors.Is(d.Reason, core.ErrTagRevoked) {
				t.Fatalf("coalesced edge Interest not denied as revoked: %+v", d)
			}

			// Same race on the content checkpoint.
			r2, prov2 := testRouter(t, 2, cfg)
			tag2 := issueTestTag(t, prov2, 1, 0, testTime(100))
			meta := core.ContentMeta{Name: testContentName, Level: 1, ProviderKey: prov2.Locator()}
			d = r2.ContentOnInterestFast(tag2, meta, 0, now)
			if !d.NeedsVerify() {
				t.Fatalf("fast content path settled without verification: %+v", d)
			}
			if !r2.ApplyRevocation(1, []core.TagID{tag2.ID()}) {
				t.Fatal("revocation push rejected")
			}
			contentIn := Input{Op: OpContent, Tag: tag2, Meta: meta, Flag: d.Flag, Now: now}
			if d = r2.VerifyMiss(contentIn); !d.Denied() || !errors.Is(d.Reason, core.ErrTagRevoked) || d.Verified {
				t.Fatalf("parked content Interest not denied as revoked: %+v", d)
			}
			if d = r2.VerifyShared(contentIn, nil); !d.Denied() || !errors.Is(d.Reason, core.ErrTagRevoked) {
				t.Fatalf("coalesced content Interest not denied as revoked: %+v", d)
			}
		})
	}
}

// TestEngineUnknownOp: a malformed input (zero or unknown Op) is denied
// at StageNone rather than silently delivered.
func TestEngineUnknownOp(t *testing.T) {
	for _, scheme := range []core.Scheme{core.SchemeTACTIC, core.SchemeIBAC} {
		t.Run(scheme.String(), func(t *testing.T) {
			r, _ := testRouter(t, 1, core.Config{Scheme: scheme})
			if v := r.engine.Check(Input{}); !v.Denied() || v.Stage != StageNone {
				t.Errorf("zero-op Check: %+v", v)
			}
			if v := r.engine.Check(Input{Op: OpAggregate + 1}); !v.Denied() || v.Stage != StageNone {
				t.Errorf("unknown-op Check: %+v", v)
			}
		})
	}
}

// TestIBACDisableRevocationCheck: the ablation reaches the IBAC backend
// too — with it set, a pushed-revoked token verifies and delivers.
func TestIBACDisableRevocationCheck(t *testing.T) {
	r, prov := testRouter(t, 1, core.Config{Scheme: core.SchemeIBAC, DisableRevocationCheck: true})
	now := testTime(10)
	tag := issueTestTag(t, prov, 1, 0, testTime(100))
	r.ApplyRevocation(1, []core.TagID{tag.ID()})
	if d := r.EdgeOnInterest(tag, 0, testContentName, now); d.Denied() {
		t.Fatalf("revocation ablation ignored by IBAC edge: %+v", d)
	}
}

// TestRequestDrivenResetDegenerateShape: a filter whose FPP is already
// at its maximum gets the minimum threshold of one lookup per reset
// rather than zero (which would divide the cadence away).
func TestRequestDrivenResetDegenerateShape(t *testing.T) {
	bf, err := bloom.NewWithShape(8, 1, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	var c cache
	c.init(bf, core.Config{RequestDrivenReset: true})
	if c.requestResetThreshold != 1 {
		t.Fatalf("degenerate threshold = %d, want 1", c.requestResetThreshold)
	}
}
