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
// Verdicts (deliver/deny + stage + reason + NACK code). The one
// expensive operation in any scheme, signature verification, is driven
// by the caller through a three-phase exchange: a PhaseFast call may
// return ActionVerify, the caller runs its validator however it likes
// (inline, or parked in a bounded pool), and a PhasePostVerify call
// carrying the validator's error folds the outcome back into the
// engine's state and final verdict. PhasePreVerify re-runs the cheap
// gates (revocation) for packets that sat parked while control-plane
// pushes landed.
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
	// OpEdgeAggregate is Protocol 2 lines 22-23: one aggregated PIT tag
	// at the edge on content arrival.
	OpEdgeAggregate
	// OpAggregate is Protocol 4 lines 11-26: one aggregated PIT tag at
	// an intermediate router on content arrival.
	OpAggregate
)

// Phase sequences the engine <-> caller verification exchange.
type Phase uint8

const (
	// PhaseFast runs every cheap check; it may return ActionVerify.
	PhaseFast Phase = iota
	// PhasePreVerify re-runs the cheap gates that may have changed while
	// the packet was parked (a revocation push can land between the fast
	// decision and the worker picking the job up). Verdict is either a
	// denial or ActionVerify ("go ahead").
	PhasePreVerify
	// PhasePostVerify folds the caller's verification outcome
	// (VerifyErr) into engine state and returns the final verdict.
	PhasePostVerify
)

// InterestInput carries the explicit inputs of an Interest-path
// decision (OpEdgeInterest, OpContent). The pre- and post-verify phases
// take the fast call's inputs unchanged apart from Phase, Flag and
// VerifyErr: what a backend caches after a verification is keyed by
// them (IBAC binds the name).
type InterestInput struct {
	Op    Op
	Phase Phase
	// Tag is the request's tag; nil for tagless requests.
	Tag *core.Tag
	// Name is the requested content name (edge path).
	Name names.Name
	// RequestAP is the access path the request arrived over (edge path).
	RequestAP core.AccessPath
	// Meta is the stored content's access metadata (content path).
	Meta core.ContentMeta
	// Flag is the incoming F value (content path); on PhasePostVerify it
	// must be the effective F the fast verdict reported.
	Flag float64
	// Now is the decision clock.
	Now time.Time
	// VerifyErr is the validator's outcome (PhasePostVerify only; nil
	// means the signature checked out).
	VerifyErr error
}

// ContentInput carries the explicit inputs of a Data-path decision
// (OpEdgeData, OpEdgeAggregate, OpAggregate).
type ContentInput struct {
	Op    Op
	Phase Phase
	// Tag is the PIT record's tag; nil for tagless records.
	Tag *core.Tag
	// Meta is the arriving content's access metadata.
	Meta core.ContentMeta
	// Flag is the F value: the arriving Data's F for OpEdgeData, the
	// aggregated record's stored F otherwise.
	Flag float64
	// Nack reports the arriving Data carried a NACK (OpEdgeData).
	Nack bool
	// Now is the decision clock.
	Now time.Time
	// VerifyErr is the validator's outcome (PhasePostVerify only).
	VerifyErr error
}

// Engine is one enforcement scheme's decision core. Implementations are
// safe for concurrent use and I/O-free; see the package comment for the
// phase protocol.
type Engine interface {
	// Scheme identifies the backend.
	Scheme() core.Scheme
	// CheckInterest decides an Interest-path checkpoint.
	CheckInterest(in InterestInput) Verdict
	// CheckContent decides a Data-path checkpoint.
	CheckContent(in ContentInput) Verdict
	// OnTagIssued observes a registration response carrying a freshly
	// issued tag passing through this router (Protocol 2 lines 11-12).
	OnTagIssued(t *core.Tag)
	// OnRevocation observes one tag entering the revocation set the
	// engine was constructed over. The set itself is shared state
	// updated by the control plane; this hook lets a backend invalidate
	// derived caches. Both current backends check the set before any
	// cache lookup, so neither needs to act.
	OnRevocation(id core.TagID)
	// OnEpochRotate advances the validation cache to a new epoch,
	// demoting the current filter to the previous-epoch fallback. Stale
	// or duplicate epochs are ignored (reported false).
	OnEpochRotate(epoch uint64) bool
	// Epoch returns the current validation-cache epoch.
	Epoch() uint64
	// Bloom exposes the validation cache for metric collection (the
	// IBAC backend uses it as its (token, name) authorization cache).
	Bloom() *bloom.Filter
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
