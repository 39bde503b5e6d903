package enforce

import (
	"github.com/tactic-icn/tactic/internal/bloom"
	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
)

// ibacEngine implements Interest-based access control (Ghali et al.,
// "Interest-Based Access Control for Content Centric Networks" — see
// PAPERS.md): a consumer presents an authorization token with each
// Interest and every enforcing router authorizes the (token, name) pair
// on first sight, caching the result. The reproduction reuses TACTIC's
// tag as the token (same issuance, signature, and expiry machinery) so
// the two schemes differ only in enforcement semantics:
//
//   - Authorization is per (token, name), not per token: a token never
//     vouches for a name it has not been checked against at this
//     router, so the cache key binds both.
//   - No access-path binding: tokens are location-independent, so a
//     borrowed token replayed from another edge, or a traitor's token
//     shared out-of-path, is honoured (TACTIC's threat (c) coverage is
//     the scheme's known gap — EXPERIMENTS.md quantifies it).
//   - No downstream collaboration: there is no flag F, no vouching, and
//     no probabilistic re-validation. The edge always verifies a cache
//     miss (EdgeValidateOnMiss is implied) and upstream routers always
//     run their own (token, name) check; forwarded packets carry F = 0.
//   - Aggregated records re-check the content half of Protocol 1
//     (level/provider) unconditionally: per-name authorization has the
//     arriving content's metadata at hand, so IBAC does not exhibit the
//     aggregate access-level leak EnforceALOnAggregates patches in
//     TACTIC.
//
// Pre-checks (prefix/expiry at the edge, level/provider at content),
// the revocation set, the Public bypass, and epoch rotation behave as
// in TACTIC.
type ibacEngine struct {
	cache
}

func newIBAC(bf *bloom.Filter, rev *core.RevocationSet, cfg core.Config) *ibacEngine {
	e := &ibacEngine{cache: cache{rev: rev}}
	e.init(bf, cfg)
	return e
}

// tokenKey is the authorization-cache key binding token and name.
func tokenKey(t *core.Tag, name names.Name) []byte {
	tk := t.CacheKey()
	ns := name.String()
	key := make([]byte, 0, len(tk)+1+len(ns))
	key = append(key, tk...)
	key = append(key, 0)
	key = append(key, ns...)
	return key
}

func (e *ibacEngine) Check(in Input) Verdict {
	switch in.Op {
	case OpEdgeInterest:
		return e.edgeInterest(in)
	case OpContent:
		return e.content(in)
	case OpEdgeData:
		// No data-path learning: the edge authorized this (token, name)
		// at Interest time, so the only question is whether the upstream
		// NACKed.
		if in.Nack {
			return Verdict{Action: ActionDeny, Stage: StageEdgeData, Reason: core.ErrDenied}
		}
		return Verdict{Stage: StageEdgeData}
	case OpEdgeAggregate, OpAggregate:
		return e.aggregate(in)
	}
	return Verdict{Action: ActionDeny, Stage: StageNone, Reason: core.ErrDenied}
}

// Verified authorizes the verified token for the name it was checked
// against: the requested name at the edge, the content's everywhere
// else. F is 0 — IBAC does no vouching.
func (e *ibacEngine) Verified(in Input) Verdict {
	name := in.Meta.Name
	if in.Op == OpEdgeInterest {
		name = in.Name
	}
	e.insert(tokenKey(in.Tag, name))
	return Verdict{Stage: in.Op.stage(), Verified: true}
}

// edgeInterest authorizes an Interest at the edge: prefix/expiry
// pre-check, revocation, then the (token, name) cache — a miss always
// escalates to signature verification, the defining IBAC behaviour. A
// nil token is forwarded (the edge cannot know whether the content is
// Public); the content router settles it.
func (e *ibacEngine) edgeInterest(in Input) Verdict {
	if in.Tag == nil {
		return Verdict{Stage: StageEdgeInterest, Flag: 0}
	}
	if !e.cfg.DisablePrecheck {
		if err := core.PreCheckEdge(in.Tag, in.Name, in.Now); err != nil {
			return Verdict{Action: ActionDeny, Stage: StageEdgeInterest, Reason: err}
		}
	}
	if e.revoked(in.Tag) {
		return Verdict{Action: ActionDeny, Stage: StageEdgeInterest, Reason: core.ErrTagRevoked}
	}
	if e.contains(tokenKey(in.Tag, in.Name)) {
		return Verdict{Stage: StageEdgeInterest, BFHit: true}
	}
	return Verdict{Action: ActionVerify, Stage: StageEdgeInterest}
}

// content authorizes a content hit: Public bypass, token presence,
// level/provider pre-check, revocation, then this router's own
// (token, name) cache. The incoming F is ignored — IBAC routers do not
// accept downstream vouching.
func (e *ibacEngine) content(in Input) Verdict {
	if in.Meta.Level == core.Public {
		return Verdict{Stage: StageContent}
	}
	if in.Tag == nil {
		return Verdict{Action: ActionDeny, Stage: StageContent, Reason: core.ErrNoTag}
	}
	if !e.cfg.DisablePrecheck {
		if err := core.PreCheckContent(in.Tag, in.Meta); err != nil {
			return Verdict{Action: ActionDeny, Stage: StageContent, Reason: err}
		}
	}
	if e.revoked(in.Tag) {
		return Verdict{Action: ActionDeny, Stage: StageContent, Reason: core.ErrTagRevoked}
	}
	if e.contains(tokenKey(in.Tag, in.Meta.Name)) {
		return Verdict{Stage: StageContent, BFHit: true}
	}
	return Verdict{Action: ActionVerify, Stage: StageContent}
}

// aggregate authorizes one aggregated PIT record on content
// arrival. Per-name authorization always has the content's metadata at
// this point, so the level/provider pre-check runs unconditionally
// (closing TACTIC's aggregate access-level gap by construction).
func (e *ibacEngine) aggregate(in Input) Verdict {
	if in.Tag == nil {
		return Verdict{Action: ActionDeny, Stage: StageAggregate, Reason: core.ErrNoTag}
	}
	if !e.cfg.DisablePrecheck {
		if err := core.PreCheckContent(in.Tag, in.Meta); err != nil {
			return Verdict{Action: ActionDeny, Stage: StageAggregate, Reason: err}
		}
	}
	if e.revoked(in.Tag) {
		return Verdict{Action: ActionDeny, Stage: StageAggregate, Reason: core.ErrTagRevoked}
	}
	if e.contains(tokenKey(in.Tag, in.Meta.Name)) {
		return Verdict{Stage: StageAggregate, BFHit: true}
	}
	return Verdict{Action: ActionVerify, Stage: StageAggregate}
}

func (e *ibacEngine) OnTagIssued(*core.Tag) {
	// A freshly issued token has authorized no names yet; there is
	// nothing to cache.
}
