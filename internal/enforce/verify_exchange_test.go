package enforce

import (
	"errors"
	"testing"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
)

// TestVerifiedRequestIsCachedUnderItsOwnKey: a request verified on a
// miss must be a cache hit when it repeats — one verification, however
// many identical requests. Under IBAC the cache key binds the name, so
// the input a verification completes on has to carry it (it did not:
// every IBAC request used to re-verify). Both the inline wrappers and
// the caller-driven exchange (Check, then VerifyMiss) are held to it, at
// both checkpoints.
func TestVerifiedRequestIsCachedUnderItsOwnKey(t *testing.T) {
	opNames := map[Op]string{OpEdgeInterest: "edge", OpContent: "content"}
	driveNames := map[bool]string{false: "wrapper", true: "exchange"}
	for _, scheme := range []core.Scheme{core.SchemeTACTIC, core.SchemeIBAC} {
		for _, op := range []Op{OpEdgeInterest, OpContent} {
			for _, exchange := range []bool{false, true} {
				t.Run(scheme.String()+"/"+opNames[op]+"/"+driveNames[exchange], func(t *testing.T) {
					r, prov := testRouter(t, 1, core.Config{Scheme: scheme, EdgeValidateOnMiss: true})
					now := testTime(10)
					tag := issueTestTag(t, prov, 1, 0, testTime(100))
					in := Input{Op: op, Tag: tag, Name: testContentName, Meta: aggMeta(prov), Now: now}
					decide := func() Verdict {
						if !exchange {
							if op == OpEdgeInterest {
								return r.EdgeOnInterest(tag, 0, testContentName, now)
							}
							return r.ContentOnInterest(tag, in.Meta, 0, now)
						}
						dec := r.engine.Check(in)
						if dec.NeedsVerify() {
							dec = r.VerifyMiss(in)
						}
						return dec
					}
					if d := decide(); d.Denied() || !d.Verified || d.BFHit {
						t.Fatalf("first request: %+v, want a verified delivery", d)
					}
					for n := 2; n <= 3; n++ {
						if d := decide(); d.Denied() || d.Verified || !d.BFHit {
							t.Fatalf("request %d: %+v, want a cache hit", n, d)
						}
					}
					if got := r.Validator().Verifications(); got != 1 {
						t.Fatalf("3 identical requests cost %d verifications, want 1", got)
					}
				})
			}
		}
	}
}

// TestVerifySharedIsASubsequentRequest: a request decided from another
// request's verification is a cache hit on success (no second insert,
// no verification of its own) and takes the shared error on failure.
func TestVerifySharedIsASubsequentRequest(t *testing.T) {
	for _, scheme := range []core.Scheme{core.SchemeTACTIC, core.SchemeIBAC} {
		t.Run(scheme.String(), func(t *testing.T) {
			r, prov := testRouter(t, 1, core.Config{Scheme: scheme, EdgeValidateOnMiss: true})
			now := testTime(10)
			tag := issueTestTag(t, prov, 1, 0, testTime(100))
			in := Input{Op: OpEdgeInterest, Tag: tag, Name: testContentName, Now: now}

			lead := r.VerifyMiss(in)
			if lead.Denied() || !lead.Verified {
				t.Fatalf("leader: %+v", lead)
			}
			inserted := r.Bloom().Stats().Insertions
			if d := r.VerifyShared(in, lead.Reason); d.Denied() || !d.BFHit || d.Verified {
				t.Fatalf("follower of a success: %+v, want a cache hit", d)
			}
			if got := r.Bloom().Stats().Insertions; got != inserted {
				t.Fatalf("follower inserted again: %d -> %d insertions", inserted, got)
			}

			// The cache no longer vouches for the tag (a reset raced the
			// group's close): the shared success is folded in instead.
			r.Bloom().Reset()
			if d := r.VerifyShared(in, nil); d.Denied() || !d.Verified {
				t.Fatalf("follower after a reset: %+v, want a verified delivery", d)
			}
			if d := r.engine.Check(in); !d.BFHit {
				t.Fatalf("follower's folded success was not cached: %+v", d)
			}

			// IBAC authorises per (token, name): a follower asking for
			// another name is a miss for its own key, and caches that.
			other := in
			other.Name = names.MustParse("/prov0/obj2/chunk0")
			if d := r.VerifyShared(other, nil); d.Denied() {
				t.Fatalf("follower with another name: %+v", d)
			}
			if d := r.engine.Check(other); !d.BFHit {
				t.Fatalf("follower's own (token, name) not cached: %+v", d)
			}

			forged := errors.Join(core.ErrTagForged, errors.New("bad signature"))
			if d := r.VerifyShared(in, forged); !d.Denied() || !errors.Is(d.Reason, core.ErrTagForged) {
				t.Fatalf("follower of a failure: %+v, want forged", d)
			}
			if got := r.Validator().Verifications(); got != 1 {
				t.Fatalf("followers cost verifications: %d, want the leader's 1", got)
			}
		})
	}
}

// TestVerifySharedRunsItsOwnExpiryGate: the content checkpoint checks
// expiry only inside validation, so a follower whose own clock is past
// T_e must not ride a leader that validated earlier.
func TestVerifySharedRunsItsOwnExpiryGate(t *testing.T) {
	for _, scheme := range []core.Scheme{core.SchemeTACTIC, core.SchemeIBAC} {
		t.Run(scheme.String(), func(t *testing.T) {
			r, prov := testRouter(t, 1, core.Config{Scheme: scheme})
			tag := issueTestTag(t, prov, 1, 0, testTime(100))
			in := Input{Op: OpContent, Tag: tag, Meta: aggMeta(prov), Now: testTime(99)}
			lead := r.VerifyMiss(in)
			if lead.Denied() {
				t.Fatalf("leader: %+v", lead)
			}
			in.Now = testTime(101)
			d := r.VerifyShared(in, lead.Reason)
			if !d.Denied() || !errors.Is(d.Reason, core.ErrTagExpired) {
				t.Fatalf("follower past expiry: %+v, want expired", d)
			}
			if got := r.Validator().Stats().Expired; got != 1 {
				t.Fatalf("validator counted %d expiries, want 1", got)
			}
		})
	}
}
