package enforce

import "github.com/tactic-icn/tactic/internal/core"

// Action is what the plane must do with the packet being decided.
type Action uint8

const (
	// ActionDeliver forwards/delivers the packet.
	ActionDeliver Action = iota
	// ActionDeny drops the packet and returns a NACK carrying the
	// verdict's reason (where the protocol path NACKs at all).
	ActionDeny
	// ActionVerify reports the decision is incomplete: the cache did not
	// vouch for the tag, so its signature must be verified before the
	// verdict can be final. Router does so inline, or, for a packet
	// parked in a verification pool, in VerifyMiss; it never returns
	// ActionVerify from a method that decides to completion.
	ActionVerify
)

// String returns a stable label for logs and golden files.
func (a Action) String() string {
	switch a {
	case ActionDeliver:
		return "deliver"
	case ActionDeny:
		return "deny"
	case ActionVerify:
		return "verify"
	default:
		return "action(?)"
	}
}

// Stage is the enforcement checkpoint that produced a verdict.
type Stage uint8

const (
	StageNone Stage = iota
	// StageEdgeInterest is Protocol 2's On-Interest procedure (plus the
	// edge half of Protocol 1).
	StageEdgeInterest
	// StageContent is Protocol 3 at a router serving the content (plus
	// the content half of Protocol 1).
	StageContent
	// StageEdgeData is Protocol 2's On-Content procedure for the
	// primary PIT record.
	StageEdgeData
	// StageAggregate is aggregated-tag validation on content arrival:
	// Protocol 2 lines 22-23 at the edge, Protocol 4 lines 11-26 at an
	// intermediate router.
	StageAggregate
)

// String returns a stable label for logs and golden files.
func (s Stage) String() string {
	switch s {
	case StageNone:
		return "none"
	case StageEdgeInterest:
		return "edge-interest"
	case StageContent:
		return "content"
	case StageEdgeData:
		return "edge-data"
	case StageAggregate:
		return "aggregate"
	default:
		return "stage(?)"
	}
}

// Verdict is the typed outcome of one enforcement decision. It unifies
// the per-protocol decision structs the planes used to consume
// (EdgeInterestDecision / ContentDecision / AggregateDecision): every
// checkpoint now returns the same shape, so the planes' plumbing and
// the golden verdict matrix speak one language.
type Verdict struct {
	// Action is deliver, deny, or verification-required.
	Action Action
	// Stage is the checkpoint that produced this verdict.
	Stage Stage
	// Reason records why a packet was denied; nil on deliver. On
	// ActionVerify it is nil — the reason, if any, arrives with the
	// verdict that settles the verification.
	Reason error
	// Flag is the F value to carry in the forwarded packet: 0 when this
	// router did not find the tag in its filter, the filter's FPP on a
	// hit (TACTIC's collaborative vouching; always 0 under IBAC).
	Flag float64
	// BFHit reports the validation cache vouched for the tag, skipping
	// the signature check (informational, for tracing).
	BFHit bool
	// Verified reports the validator ran for this decision: Reason is
	// then its outcome, which Router.VerifyShared applies to the requests
	// that waited on this one. A denial without it was settled by a cheap
	// gate and says nothing about the tag's signature.
	Verified bool
}

// Denied reports the packet must be dropped (and NACKed where the path
// NACKs).
func (v Verdict) Denied() bool { return v.Action == ActionDeny }

// NeedsVerify reports the decision is incomplete pending a signature
// verification.
func (v Verdict) NeedsVerify() bool { return v.Action == ActionVerify }

// NackCode is the wire NACK reason code for a denial (0 when none).
func (v Verdict) NackCode() uint8 { return core.ReasonCode(v.Reason) }

// ReasonLabel is the stable metric/golden-file label for the denial
// reason ("" when none).
func (v Verdict) ReasonLabel() string { return core.ReasonLabel(v.Reason) }

// Shed is the verdict a plane uses when its admission budget rejects a
// verification-needing packet (the bounded verify pool's shed policy).
// Admission itself is plumbing — budgets are per-face resources the
// engine never sees — but the resulting NACK policy is enforcement, so
// the verdict is minted here to keep all deny reasons in one place.
func Shed(stage Stage) Verdict {
	return Verdict{Action: ActionDeny, Stage: stage, Reason: core.ErrOverload}
}
