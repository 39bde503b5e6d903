// Package enforce is the access-control decision core shared by every
// plane of this reproduction. It holds exactly the logic that used to
// be implemented three times — in the simulator's router, the live
// forwarder, and the conformance oracle's reference model — behind one
// Engine interface, so the planes are reduced to plumbing and the
// conformance surface shrinks to I/O.
//
// An Engine is pure in the I/O sense: it performs no signature
// verification, no network access, and no blocking work. Its inputs are
// explicit — tag, content name, clock, the Bloom-filter view and
// revocation set it was constructed over — and its outputs are typed
// Verdicts (deliver/deny + stage + reason + NACK code). An engine holds
// only what differs between schemes: its cheap checks (Check, which may
// answer ActionVerify on a cache miss) and what a successful signature
// verification teaches its cache (Verified). The verification exchange
// itself — §4.B's "verify a received tag's signature and insert the tag
// to its BF if the signature is valid" — is written once, in Router: it
// runs the validator (inline, or for a request parked in the live verify
// pool, after re-checking the revocation set a control-plane push may
// have changed meanwhile), turns a failure into a denial, and hands a
// success to Verified.
//
// Two backends exist: the paper's tag-based scheme (core.SchemeTACTIC)
// and Interest-based access control (core.SchemeIBAC). The Router type
// in this package pairs an Engine with a core.TagValidator and exposes
// the protocol-shaped methods the node core (internal/node) sequences:
// one per Interest-path checkpoint, and, for arriving Data,
// Router.OnDataRecord — the single sequencing of the content-side
// checkpoints for one PIT record (Protocol 2 On-Content, Protocol 4
// lines 6-26), which says what the record's requester is sent and why.
package enforce

import (
	"math/rand"
	"time"

	"github.com/tactic-icn/tactic/internal/bloom"
	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
)

// Op identifies the protocol path being decided.
type Op uint8

const (
	// OpEdgeInterest is Protocol 2's On-Interest at an edge router.
	OpEdgeInterest Op = iota + 1
	// OpContent is Protocol 3 at a router serving the content.
	OpContent
	// OpEdgeData is Protocol 2's On-Content for the primary PIT record.
	OpEdgeData
	// OpAggregate is one aggregated PIT tag on content arrival: Protocol
	// 2 lines 22-23 at an edge (with F = 0: nothing upstream vouched for
	// the record), Protocol 4 lines 11-26 at an intermediate router (with
	// the record's stored F).
	OpAggregate
)

// stage is the checkpoint an Op decides.
func (op Op) stage() Stage {
	switch op {
	case OpEdgeInterest:
		return StageEdgeInterest
	case OpContent:
		return StageContent
	case OpEdgeData:
		return StageEdgeData
	case OpAggregate:
		return StageAggregate
	}
	return StageNone
}

// Input carries the explicit inputs of one checkpoint's decision. A
// verification completes the decision on the inputs of the Check that
// asked for it, with Flag replaced by that verdict's Flag: what a
// backend caches after a verification is keyed by them (IBAC binds the
// name).
type Input struct {
	Op Op
	// Tag is the request's (or the PIT record's) tag; nil for tagless
	// requests.
	Tag *core.Tag
	// Name is the requested content name (OpEdgeInterest).
	Name names.Name
	// RequestAP is the access path the request arrived over
	// (OpEdgeInterest).
	RequestAP core.AccessPath
	// Meta is the stored or arriving content's access metadata (OpContent
	// and the aggregates).
	Meta core.ContentMeta
	// Flag is the F value: the request's incoming F (OpContent), the
	// arriving Data's F (OpEdgeData) or the aggregated record's stored F
	// (OpAggregate). After ActionVerify it must be the effective F the
	// verdict reported.
	Flag float64
	// Nack reports the arriving Data carried a NACK (OpEdgeData).
	Nack bool
	// Now is the decision clock.
	Now time.Time
}

// Engine is one enforcement scheme's decision core. Implementations are
// safe for concurrent use and I/O-free; see the package comment for the
// verification exchange Router drives.
type Engine interface {
	// Check runs a checkpoint's cheap checks. ActionVerify means the
	// cache did not vouch for the tag: the caller verifies its signature
	// and, if it holds, finishes with Verified.
	Check(in Input) Verdict
	// Verified folds a successful verification of in.Tag into the cache
	// and returns the checkpoint's final verdict.
	Verified(in Input) Verdict
	// OnTagIssued observes a registration response carrying a freshly
	// issued tag passing through this router (Protocol 2 lines 11-12).
	OnTagIssued(t *core.Tag)
	// OnEpochRotate advances the validation cache to a new epoch,
	// demoting the current filter to the previous-epoch fallback. Stale
	// or duplicate epochs are ignored (reported false).
	OnEpochRotate(epoch uint64) bool
	// Epoch returns the current validation-cache epoch.
	Epoch() uint64
	// Bloom exposes the validation cache for metric collection (the
	// IBAC backend uses it as its (token, name) authorization cache).
	Bloom() *bloom.Filter
	// revoked is the revocation gate every backend shares (cache.revoked),
	// which Router re-runs for a request that sat parked.
	revoked(t *core.Tag) bool
}

// New constructs the Engine selected by cfg.Scheme over the given
// Bloom-filter view, revocation set, and randomness stream.
func New(bf *bloom.Filter, rev *core.RevocationSet, rng *rand.Rand, cfg core.Config) Engine {
	switch cfg.Scheme {
	case core.SchemeIBAC:
		return newIBAC(bf, rev, cfg)
	default:
		return newTACTIC(bf, rev, rng, cfg)
	}
}
