package enforce

import (
	"math/rand"
	"time"

	"github.com/tactic-icn/tactic/internal/bloom"
	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
)

// Router pairs an Engine with the one piece of I/O every scheme needs —
// the signature validator — and exposes the protocol-shaped entry
// points the planes call. It owns the revocation set the engine reads,
// which each control-plane push replaces through ApplyRevocation, and it
// drives the verification exchange for both schemes: the engine's Check
// asks for a verification, the Router runs the validator and settles the
// decision (a failure is a denial; a success goes to the engine's
// Verified).
//
// Router is safe for concurrent use: the Bloom filter is internally
// atomic, the validator keeps only atomic counters (duplicate
// verifications of one tag are merged before it, in the live verify
// pool), and the TACTIC backend's randomness stream is guarded
// by a mutex (the only lock a decision function can take, held for one
// Float64 draw). The discrete-event simulator still serialises all
// accesses, so its deterministic rng draw order is unchanged.
type Router struct {
	id        string
	engine    Engine
	validator *core.TagValidator
	rev       *core.RevocationSet
	// recheck runs the content half of Protocol 1 on every aggregated
	// record (aggregated), unless pre-checks are off or TACTIC runs the
	// paper's pseudocode (core.Config.PaperAggregates).
	recheck bool
}

// NewRouter creates a router-side enforcement driver running the scheme
// selected by cfg.Scheme.
func NewRouter(id string, bf *bloom.Filter, validator *core.TagValidator, rng *rand.Rand, cfg core.Config) *Router {
	rev := core.NewRevocationSet()
	return &Router{
		id:        id,
		engine:    New(bf, rev, rng, cfg),
		validator: validator,
		rev:       rev,
		recheck:   !cfg.DisablePrecheck && !(cfg.PaperAggregates && cfg.Scheme == core.SchemeTACTIC),
	}
}

// ID returns the router's identity (also its access-path entity ID).
func (r *Router) ID() string { return r.id }

// Bloom exposes the router's validation cache for metric collection.
func (r *Router) Bloom() *bloom.Filter { return r.engine.Bloom() }

// Validator exposes the router's validator for metric collection.
func (r *Router) Validator() *core.TagValidator { return r.validator }

// Revocations exposes the router's revocation set for metric reads;
// control-plane pushes go through ApplyRevocation.
func (r *Router) Revocations() *core.RevocationSet { return r.rev }

// ApplyRevocation replaces the revocation set with a pushed one, the
// provider's revoked grants still before their T_e. It reports whether
// the push advanced the set's version; a stale push changes nothing.
func (r *Router) ApplyRevocation(version uint64, ids []core.TagID) bool {
	return r.rev.Apply(version, ids)
}

// Epoch returns the router's current validation-cache epoch.
func (r *Router) Epoch() uint64 { return r.engine.Epoch() }

// RotateEpoch advances the router to a new cache epoch (see
// Engine.OnEpochRotate).
func (r *Router) RotateEpoch(epoch uint64) bool { return r.engine.OnEpochRotate(epoch) }

// --- The verification exchange -----------------------------------------------

// complete decides a checkpoint to completion, verifying inline when the
// engine asks for it.
func (r *Router) complete(in Input) Verdict {
	dec := r.engine.Check(in)
	if !dec.NeedsVerify() {
		return dec
	}
	in.Flag = dec.Flag
	return r.settle(in, r.validator.Validate(in.Tag, in.Now))
}

// settle finishes a decision with a verification's outcome: a failure is
// a denial carrying the validator's error, a success goes to the
// engine's Verified.
func (r *Router) settle(in Input, err error) Verdict {
	if err != nil {
		return Verdict{Action: ActionDeny, Stage: in.Op.stage(), Reason: err, Flag: in.Flag, Verified: true}
	}
	return r.engine.Verified(in)
}

// revokedWhileParked re-runs the revocation gate for a request that sat
// parked: a revocation push can land between the fast decision and the
// verify worker picking the request up.
func (r *Router) revokedWhileParked(in Input) (Verdict, bool) {
	if !r.engine.revoked(in.Tag) {
		return Verdict{}, false
	}
	return Verdict{Action: ActionDeny, Stage: in.Op.stage(), Reason: core.ErrTagRevoked, Flag: in.Flag}, true
}

// --- Protocol 2: edge router ------------------------------------------------

// EdgeOnInterest runs the edge On-Interest checkpoint to completion.
func (r *Router) EdgeOnInterest(t *core.Tag, requestAP core.AccessPath, contentName names.Name, now time.Time) Verdict {
	return r.complete(Input{Op: OpEdgeInterest, Tag: t, RequestAP: requestAP, Name: contentName, Now: now})
}

// EdgeOnInterestFast is the cheap half of EdgeOnInterest — everything
// except the signature verification. When the verdict is ActionVerify
// the caller must finish with VerifyMiss on the same inputs, either
// inline or, on the live plane, after parking the Interest in the
// verification pool.
func (r *Router) EdgeOnInterestFast(t *core.Tag, requestAP core.AccessPath, contentName names.Name, now time.Time) Verdict {
	return r.engine.Check(Input{Op: OpEdgeInterest, Tag: t, RequestAP: requestAP, Name: contentName, Now: now})
}

// EdgeOnTagResponse handles a registration response (a fresh tag T_u^new
// coming from the producer) passing through the edge on its way to the
// client (Protocol 2 lines 11-12).
func (r *Router) EdgeOnTagResponse(t *core.Tag) { r.engine.OnTagIssued(t) }

// EdgeOnData runs Protocol 2's On-Content checkpoint for the Interest's
// primary tag; a denial means the (NACKed) response is dropped rather
// than delivered to the client.
func (r *Router) EdgeOnData(t *core.Tag, dataFlag float64, nack bool) Verdict {
	return r.engine.Check(Input{Op: OpEdgeData, Tag: t, Flag: dataFlag, Nack: nack})
}

// --- Protocol 3: content router ---------------------------------------------

// ContentOnInterest runs the content-router checkpoint to completion.
// The content is returned even alongside a NACK so that valid requests
// aggregated in downstream PITs can still be satisfied — the paper's
// deliberate bandwidth/abuse trade-off (§5.B).
func (r *Router) ContentOnInterest(t *core.Tag, meta core.ContentMeta, flag float64, now time.Time) Verdict {
	return r.complete(Input{Op: OpContent, Tag: t, Meta: meta, Flag: flag, Now: now})
}

// ContentOnInterestFast is the cheap half of ContentOnInterest. When
// the verdict is ActionVerify the caller must finish with VerifyMiss on
// the same inputs, with Flag replaced by the verdict's Flag.
func (r *Router) ContentOnInterestFast(t *core.Tag, meta core.ContentMeta, flag float64, now time.Time) Verdict {
	return r.engine.Check(Input{Op: OpContent, Tag: t, Meta: meta, Flag: flag, Now: now})
}

// --- Completing a parked ActionVerify verdict ---------------------------------

// VerifyMiss completes an Interest-path decision (OpEdgeInterest or
// OpContent) whose fast verdict was ActionVerify. in is the fast call's
// input, with Flag set to the fast verdict's Flag (the effective F after
// the DisableCollaboration ablation). It re-checks the revocation set (a
// push may have landed while the Interest was parked), verifies the
// tag's signature, and settles the decision. The verdict's Verified
// field reports whether the validator ran: when it did, Reason is the
// validator's outcome (nil on success), which the live verify pool hands
// to VerifyShared for every request that waited on this one.
func (r *Router) VerifyMiss(in Input) Verdict {
	if dec, revoked := r.revokedWhileParked(in); revoked {
		return dec
	}
	return r.settle(in, r.validator.Validate(in.Tag, in.Now))
}

// VerifyShared completes the same kind of decision for a request whose
// tag another request has just had verified: verifyErr is that
// validation's outcome. The request is decided as what it now is, a
// subsequent request for a verified tag. Its own gates run first
// (revocation, and expiry at its own clock, which replaces the shared
// outcome exactly as its own Validate call would have); on success the
// cheap checks run again, normally a cache hit, so nothing is inserted
// twice; if they still ask for a verification (the filter was reset in
// between, or IBAC's per-name key is new) or the shared outcome is a
// failure, verifyErr settles the decision. No path yields a more
// permissive verdict than VerifyMiss would.
func (r *Router) VerifyShared(in Input, verifyErr error) Verdict {
	if dec, revoked := r.revokedWhileParked(in); revoked {
		return dec
	}
	if err := r.validator.CheckFresh(in.Tag, in.Now); err != nil {
		verifyErr = err
	}
	if verifyErr == nil {
		if dec := r.engine.Check(in); !dec.NeedsVerify() {
			return dec
		}
	}
	return r.settle(in, verifyErr)
}

// --- Aggregated PIT records (Protocol 2 lines 22-23, Protocol 4 lines 11-26) ---

// aggregated validates one aggregated PIT record's tag (never nil) when
// the content arrives, verifying inline when the engine asks for it:
// flag is 0 at an edge and the record's stored F at an intermediate
// router (<T_w, F, InFace_w>). Whatever the scheme, the record first
// meets the content half of Protocol 1 against the arriving content —
// the level and provider checks its Interest would have met as a
// primary at the content router — so aggregation changes no verdict.
func (r *Router) aggregated(t *core.Tag, meta core.ContentMeta, flag float64, now time.Time) Verdict {
	if r.recheck {
		if err := core.PreCheckContent(t, meta); err != nil {
			return Verdict{Action: ActionDeny, Stage: StageAggregate, Reason: err, Flag: flag}
		}
	}
	return r.complete(Input{Op: OpAggregate, Tag: t, Meta: meta, Flag: flag, Now: now})
}

// --- One PIT record on Data arrival (Protocol 2 On-Content, Protocol 4 lines 6-26) ---

// Delivery is what one PIT record's requester is sent when Data arrives.
type Delivery uint8

const (
	// DeliverNothing: the edge drops the response for this requester.
	DeliverNothing Delivery = iota
	// DeliverContent: the content, no NACK.
	DeliverContent
	// DeliverContentNACK: the content alongside a NACK, so that valid
	// requests aggregated further downstream can still be satisfied
	// (the paper's §5.B trade-off).
	DeliverContentNACK
	// DeliverNACK: a bare NACK; the arriving Data carried no content.
	DeliverNACK
)

// Nack reports whether the requester is sent a NACK.
func (d Delivery) Nack() bool { return d >= DeliverContentNACK }

// ArrivedData is what a record's decision reads from the arriving Data.
type ArrivedData struct {
	// Content is nil on a bare NACK.
	Content *core.Content
	// Flag is the F the Data carries.
	Flag float64
	// Nack and NackReason are the upstream's verdict on the primary tag.
	Nack       bool
	NackReason error
}

// RecordVerdict decides one PIT record. The plane sends, toward the
// record's face, the arriving content (when Deliver says so) under the
// record's own tag with this Flag and Reason.
type RecordVerdict struct {
	Deliver Delivery
	// Stage is the enforcement checkpoint that was consulted; StageNone
	// when role, tag presence and content level settled it alone (the
	// simulator charges router CPU only for consulted checkpoints).
	Stage Stage
	// Flag is the F to carry downstream.
	Flag float64
	// Reason is the NACK reason, or why nothing is delivered; nil on
	// DeliverContent.
	Reason error
	// Minted reports the NACK originates at this router (its own
	// checkpoint or the tagless rule), as opposed to one relayed from
	// upstream: planes count minted NACKs only.
	Minted bool
}

// OnDataRecord decides what the requester behind one PIT record gets
// from an arriving Data. It is the single sequencing of the content-side
// checkpoints; the node core (internal/node) calls it once per record.
//
// Un-NACKed Public content goes to every record — tagged or tagless,
// primary or aggregate, at an edge or not — and no checkpoint runs, so
// nothing is learnt from it: an upstream's Public bypass validated no
// tag.
//
// At an edge router (Protocol 2 On-Content) the client gets the content
// or nothing: a tagless record nothing; the primary record whatever
// EdgeOnData allows (a NACKed response is dropped); an aggregated record
// is judged on its own tag (aggregated, F = 0), independently of the
// primary's NACK — the content rides along with NACKs precisely for its
// sake — and gets nothing from a bare NACK.
//
// At any other router (Protocol 4) the primary record is relayed as it
// arrived, NACK included (lines 6-10). An aggregated record is relayed
// a bare NACK as such, and otherwise always receives the content: alone
// if aggregated accepts the record's tag and stored F (lines 11-26),
// alongside a NACK if not or if it has no tag.
func (r *Router) OnDataRecord(edge, primary bool, tag *core.Tag, recFlag float64, d ArrivedData, now time.Time) RecordVerdict {
	if d.Content != nil && !d.Nack && d.Content.Meta.Level == core.Public {
		return RecordVerdict{Deliver: DeliverContent, Flag: d.Flag}
	}
	if edge {
		switch {
		case tag == nil:
			return RecordVerdict{Reason: core.ErrNoTag}
		case primary:
			if r.EdgeOnData(tag, d.Flag, d.Nack).Denied() {
				// The checkpoint only observes the upstream's NACK; the
				// reason worth reporting is the upstream's.
				return RecordVerdict{Stage: StageEdgeData, Reason: d.NackReason}
			}
			return RecordVerdict{Deliver: DeliverContent, Stage: StageEdgeData, Flag: d.Flag}
		case d.Content == nil:
			return RecordVerdict{Reason: d.NackReason}
		}
		if dec := r.aggregated(tag, d.Content.Meta, 0, now); dec.Denied() {
			return RecordVerdict{Stage: StageAggregate, Reason: dec.Reason}
		}
		return RecordVerdict{Deliver: DeliverContent, Stage: StageAggregate, Flag: d.Flag}
	}
	switch {
	case primary:
		v := RecordVerdict{Deliver: DeliverContent, Flag: d.Flag, Reason: d.NackReason}
		switch {
		case d.Nack && d.Content == nil:
			v.Deliver = DeliverNACK
		case d.Nack:
			v.Deliver = DeliverContentNACK
		}
		return v
	case d.Content == nil:
		return RecordVerdict{Deliver: DeliverNACK, Reason: d.NackReason}
	case tag == nil:
		return RecordVerdict{Deliver: DeliverContentNACK, Reason: core.ErrNoTag, Minted: true}
	}
	dec := r.aggregated(tag, d.Content.Meta, recFlag, now)
	if dec.Denied() {
		return RecordVerdict{Deliver: DeliverContentNACK, Stage: StageAggregate, Flag: dec.Flag, Reason: dec.Reason, Minted: true}
	}
	return RecordVerdict{Deliver: DeliverContent, Stage: StageAggregate, Flag: dec.Flag}
}
