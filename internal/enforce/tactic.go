package enforce

import (
	"math/rand"
	"sync"

	"github.com/tactic-icn/tactic/internal/bloom"
	"github.com/tactic-icn/tactic/internal/core"
)

// tacticEngine is the paper's scheme: provider-signed tags cached in a
// Bloom filter keyed by the tag's wire encoding, access-path binding at
// the edge, and the flag-F collaborative re-validation of Protocols
// 2-4. The check order of every path is exactly the order the
// pre-extraction core.Router used — the simulator's delay model charges
// per Bloom/verify operation and its rng draw order is part of the
// determinism contract, so order is behaviour here.
type tacticEngine struct {
	cache

	rngMu sync.Mutex
	rng   *rand.Rand
}

func newTACTIC(bf *bloom.Filter, rev *core.RevocationSet, rng *rand.Rand, cfg core.Config) *tacticEngine {
	e := &tacticEngine{cache: cache{rev: rev}, rng: rng}
	e.init(bf, cfg)
	return e
}

// decideRevalidate implements the probabilistic re-validation of
// Protocols 3-4: an upstream router re-checks a tag the edge already
// validated with probability equal to the edge filter's false-positive
// probability, carried in F. One Float64 draw under the mutex — the
// only lock a decision function takes.
func (e *tacticEngine) decideRevalidate(flag float64) bool {
	e.rngMu.Lock()
	v := e.rng.Float64()
	e.rngMu.Unlock()
	return v < flag
}

func (e *tacticEngine) Check(in Input) Verdict {
	switch in.Op {
	case OpEdgeInterest:
		return e.edgeInterest(in)
	case OpContent:
		return e.content(in)
	case OpEdgeData:
		// Protocol 2's On-Content for the primary tag: on a NACKed
		// response the entry is dropped (lines 19-20). When the Data's F
		// is zero the edge learns the upstream validated the tag and
		// inserts it (lines 14-15); a non-zero F means the tag was
		// already in this filter, so re-insertion is skipped (lines
		// 16-17) — the optimisation that makes edge insertions outnumber
		// edge verifications in the paper's Fig. 7(a). Decided here, not
		// in a helper: a call that copies Input costs this per-Data
		// checkpoint three times its work.
		if in.Nack {
			return Verdict{Action: ActionDeny, Stage: StageEdgeData, Reason: core.ErrDenied}
		}
		if in.Tag != nil && in.Flag == 0 {
			e.insert(in.Tag.CacheKey())
		}
		return Verdict{Stage: StageEdgeData}
	case OpAggregate:
		return e.aggregate(in)
	}
	return Verdict{Action: ActionDeny, Stage: StageNone, Reason: core.ErrDenied}
}

// Verified caches the verified tag. The content checkpoint's F != 0
// re-check is the one exception: the tag is vouched for by the edge's
// filter, not this one's. Protocol 4 inserts even after a flag-triggered
// re-check — the re-validated tag is now first-hand knowledge at this
// router. The edge forwards a verified Interest with F = its filter's
// FPP, as on a hit.
func (e *tacticEngine) Verified(in Input) Verdict {
	if in.Op != OpContent || in.Flag == 0 {
		e.insert(in.Tag.CacheKey())
	}
	v := Verdict{Stage: in.Op.stage(), Flag: in.Flag, Verified: true}
	if in.Op == OpEdgeInterest {
		v.Flag = e.bf.FPP()
	}
	return v
}

// edgeInterest is Protocol 2's On-Interest plus the edge half of
// Protocol 1: pre-check, access path, revocation, and the Bloom-filter
// lookup — everything except the signature verification.
//
// A nil tag is forwarded with F = 0 rather than dropped: the edge
// cannot know whether the target content is Public (AL_D = NULL) — only
// a content router holding the data can, and Protocol 1's content half
// enforces it there.
func (e *tacticEngine) edgeInterest(in Input) Verdict {
	if in.Tag == nil {
		return Verdict{Stage: StageEdgeInterest, Flag: 0}
	}
	if !e.cfg.DisablePrecheck {
		if err := core.PreCheckEdge(in.Tag, in.Name, in.Now); err != nil {
			return Verdict{Action: ActionDeny, Stage: StageEdgeInterest, Reason: err}
		}
	}
	if !in.Tag.AccessPath.Matches(in.RequestAP) {
		return Verdict{Action: ActionDeny, Stage: StageEdgeInterest, Reason: core.ErrAccessPathMismatch}
	}
	if e.revoked(in.Tag) {
		return Verdict{Action: ActionDeny, Stage: StageEdgeInterest, Reason: core.ErrTagRevoked}
	}
	if e.contains(in.Tag.CacheKey()) {
		return Verdict{Stage: StageEdgeInterest, Flag: e.bf.FPP(), BFHit: true}
	}
	if e.cfg.EdgeValidateOnMiss {
		return Verdict{Action: ActionVerify, Stage: StageEdgeInterest}
	}
	return Verdict{Stage: StageEdgeInterest, Flag: 0}
}

// content is Protocol 3 plus the content half of Protocol 1,
// everything except the signature verification. On ActionVerify the
// verdict's Flag holds the effective F (after the DisableCollaboration
// ablation) the verification completes with.
func (e *tacticEngine) content(in Input) Verdict {
	if in.Meta.Level == core.Public {
		// "We set the AL_D (of a publicly available data) to NULL, which
		// allows an r_C^c to return the requested content without tag
		// verification" (§5).
		return Verdict{Stage: StageContent, Flag: in.Flag}
	}
	if in.Tag == nil {
		return Verdict{Action: ActionDeny, Stage: StageContent, Reason: core.ErrNoTag}
	}
	flag := in.Flag
	if !e.cfg.DisablePrecheck {
		if err := core.PreCheckContent(in.Tag, in.Meta); err != nil {
			return Verdict{Action: ActionDeny, Stage: StageContent, Reason: err, Flag: flag}
		}
	}
	if e.revoked(in.Tag) {
		return Verdict{Action: ActionDeny, Stage: StageContent, Reason: core.ErrTagRevoked, Flag: flag}
	}
	if e.cfg.DisableCollaboration {
		flag = 0
	}
	if flag == 0 {
		if e.contains(in.Tag.CacheKey()) {
			return Verdict{Stage: StageContent, Flag: 0, BFHit: true}
		}
		return Verdict{Action: ActionVerify, Stage: StageContent, Flag: 0}
	}
	// F != 0: the edge vouches for the tag; re-validate only with
	// probability F (the edge filter's false-positive probability).
	if e.decideRevalidate(flag) {
		return Verdict{Action: ActionVerify, Stage: StageContent, Flag: flag}
	}
	return Verdict{Stage: StageContent, Flag: flag}
}

// aggregate validates one aggregated PIT tuple <T_w, F, InFace_w> when
// the content arrives, after Router's content pre-check (Router.aggregated):
// Protocol 4 lines 11-26 at an intermediate router, and Protocol 2 lines
// 22-23 at an edge, where F is 0 — deliver on a Bloom-filter hit,
// otherwise verify. A hit short-circuits signature verification on the
// F = 0 path, per §4.B's router procedure ("cheaper BF lookup operations
// for the majority of the subsequent requests").
func (e *tacticEngine) aggregate(in Input) Verdict {
	flag := in.Flag
	if e.revoked(in.Tag) {
		return Verdict{Action: ActionDeny, Stage: StageAggregate, Reason: core.ErrTagRevoked, Flag: flag}
	}
	if e.cfg.DisableCollaboration {
		flag = 0
	}
	if flag != 0 && !e.decideRevalidate(flag) {
		return Verdict{Stage: StageAggregate, Flag: flag}
	}
	if flag == 0 && e.contains(in.Tag.CacheKey()) {
		return Verdict{Stage: StageAggregate, Flag: 0, BFHit: true}
	}
	return Verdict{Action: ActionVerify, Stage: StageAggregate, Flag: flag}
}

func (e *tacticEngine) OnTagIssued(t *core.Tag) { e.insert(t.CacheKey()) }
