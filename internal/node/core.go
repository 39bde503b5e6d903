// Package node is a TACTIC router's forwarding loop, written once: the
// order in which an Interest meets Protocol 2, the content store,
// Protocol 3, the PIT and the FIB, and in which an arriving Data consumes
// its pending entry, is cached (or, a registration response at an edge,
// vouched into the Bloom filter) and is decided per requester by
// Protocols 2 and 4. What a control frame — a revocation push, an epoch
// rotation, a neighbour's BF-sync advert — does to the node is decided
// here too (OnControl).
//
// The Core is sans-IO: it reads no clock (now is an argument), sends
// nothing (it returns what to do as a plain value) and verifies no
// signature (it returns the decision that awaits one and is resumed with
// the verdict). Two drivers run it: the discrete-event simulator
// (internal/network) completes a verification inline and charges it to the
// router's virtual CPU; the live forwarder (internal/forwarder) parks it
// in its verify pool and resumes on a worker. Admission to verification is
// not theirs: both pass every Verify step through one VerifyQueue — the
// per-face budget, one verification per tag, round-robin across faces —
// which is as sans-IO as the Core. A driver keeps what differs between
// the planes: spans and counters, the verify scheduler (when a job runs,
// and when its charge is released), loss recovery (re-send on Aggregate,
// consume again on DropNoRoute or a failed send, tell a requester of an
// undeliverable answer or stay silent), PIT expiry, and which checkpoints an
// arrival meets (Checks). Every method is called on concrete types and
// returns by value, so a packet that parks nothing allocates nothing here.
package node

import (
	"errors"
	"fmt"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/enforce"
	"github.com/tactic-icn/tactic/internal/ndn"
)

// Role is a node's place in the paper's topology.
type Role uint8

const (
	// RoleEdge runs Protocol 2 toward its clients, on top of RoleCore.
	RoleEdge Role = iota + 1
	// RoleCore is a content or intermediate router (Protocols 3 and 4).
	RoleCore
	// RoleOrigin is a provider's origin: its content store is the published
	// catalogue and nothing is upstream, so an Interest the store does not
	// answer never reaches a PIT or FIB (it has neither), no Data is
	// solicited and no control frame is heard.
	RoleOrigin
)

// String is the role's metric label.
func (r Role) String() string {
	if r > RoleOrigin {
		r = 0
	}
	return [...]string{"unknown", "edge", "core", "producer"}[r]
}

// Checks selects the Interest-path checkpoints one arrival meets — the
// driver's call: only it knows its faces (Protocol 2, the edge On-Interest
// checkpoint, is for client-side arrivals) and its baselines (a plain NDN
// router skips Protocol 3 on a content-store hit too).
type Checks uint8

const (
	Protocol2 Checks = 1 << iota
	Protocol3
)

// Drop causes: why a packet went unanswered. One vocabulary for the
// simulator's drop keys and the live tactic_drops_total{cause} label; the
// last two are a driver's send failing, which the core never sees.
const (
	DropDupNonce      = "dup_nonce"
	DropNoRoute       = "no_route"
	DropUnsolicited   = "unsolicited"
	DropUndeliverable = "undeliverable"
	DropNoFace        = "no_face"
	DropSendErr       = "send_error"
)

// DropCauses lists every cause, for drivers that pre-create a series each.
var DropCauses = []string{DropDupNonce, DropNoRoute, DropUnsolicited, DropUndeliverable, DropNoFace, DropSendErr}

// Control outcomes: what a control frame did to the node (OnControl), the
// live tactic_control_total{outcome} label.
const (
	ControlApplied = "applied"
	ControlStale   = "stale"
	ControlInvalid = "invalid"
)

// Span outcomes: how a router or origin hop's span ends, one vocabulary
// for the simulator's spans and the live forwarder's. A NACK answered
// here is OutcomeNack plus its core.ReasonLabel, a drop OutcomeDrop plus
// its cause.
const (
	OutcomeForwarded  = "forwarded"
	OutcomeAggregated = "aggregated"
	OutcomeCSHit      = "cs_hit"
	OutcomeDelivered  = "delivered"
	OutcomeNack       = "nack:"
	OutcomeDrop       = "drop:"
)

// SpanOutcomes lists every outcome the node core's steps end a span with.
func SpanOutcomes() []string {
	out := []string{OutcomeForwarded, OutcomeAggregated, OutcomeCSHit, OutcomeDelivered}
	for _, label := range core.ReasonLabels() {
		out = append(out, OutcomeNack+label)
	}
	for _, cause := range DropCauses {
		out = append(out, OutcomeDrop+cause)
	}
	return out
}

// Core is one node's forwarding state machine, as safe for concurrent use
// as its tables and enforcement router are.
type Core struct {
	tactic      *enforce.Router
	fib         *ndn.FIB
	pit         *ndn.PIT
	cs          *ndn.CS
	role        Role
	pitLifetime time.Duration
}

// New creates a node core over the driver's enforcement state and tables.
// The driver creates the tables and keeps using them for what is not a
// packet's walk: routes, expiry, face death, gauges.
func New(tactic *enforce.Router, fib *ndn.FIB, pit *ndn.PIT, cs *ndn.CS, role Role, pitLifetime time.Duration) *Core {
	return &Core{tactic: tactic, fib: fib, pit: pit, cs: cs, role: role, pitLifetime: pitLifetime}
}

// Action is what the driver does with an Interest.
type Action uint8

const (
	// Reply answers the arrival face with Step.Reply.
	Reply Action = iota + 1
	// Forward sends the Interest on Face, which its fresh PIT entry records.
	Forward
	// Aggregate: the Interest joined a pending entry forwarded on Face
	// (FaceNone while that forward is in flight). A driver whose links lose
	// packets re-sends it there.
	Aggregate
	// Drop leaves the Interest unanswered for Cause. On DropNoRoute its
	// fresh PIT entry stays pending: a driver whose routes come and go
	// consumes it again so a retransmission re-forwards.
	Drop
	// Verify: Pending needs the tag's signature checked. The driver gets the
	// verdict as it schedules verification (enforce.Router.VerifyMiss or
	// VerifyShared on Pending.Input; enforce.Shed when the VerifyQueue
	// sheds it) and calls ResumeInterest.
	Verify
	// Register: a registration Interest reached its provider's origin, which
	// answers it with a fresh tag or not at all.
	Register
)

// Answer is what a requester is sent: the content (nil on a bare NACK)
// and/or a NACK with its reason, and the F to carry. The driver adds the
// name, the requester's tag and its trace context.
type Answer struct {
	Content *core.Content
	Flag    float64
	Nack    bool
	Reason  error
}

// Pending is an Interest-path decision that awaits a signature verdict:
// the checkpoint (enforce.OpEdgeInterest or enforce.OpContent) and, for
// OpContent, the content-store hit and the fast verdict's effective F.
type Pending struct {
	Op      enforce.Op
	Content *core.Content
	Flag    float64
	checks  Checks
}

// Input is the enforcement input that completes the decision for i: the
// fast check's, as VerifyMiss and VerifyShared take it.
func (p Pending) Input(i *ndn.Interest, now time.Time) enforce.Input {
	if p.Op == enforce.OpContent {
		return enforce.Input{Op: p.Op, Tag: i.Tag, Meta: p.Content.Meta, Flag: p.Flag, Now: now}
	}
	return enforce.Input{Op: p.Op, Tag: i.Tag, RequestAP: i.AccessPath, Name: i.Name, Now: now}
}

// Step is the core's answer to one Interest: the Action and its operand —
// Face (Forward, Aggregate), Cause (Drop), Reply or Pending (Verify).
type Step struct {
	Action  Action
	Face    ndn.FaceID
	Cause   string
	Reply   Answer
	Pending Pending
	// Stage is the last enforcement checkpoint this call consulted (or was
	// resumed with the verdict of), enforce.StageNone when role, tables
	// and Checks settled it alone; BFHit reports that checkpoint's
	// validation cache vouched for the tag. The simulator charges router
	// CPU for consulted checkpoints only; spans narrate them.
	Stage enforce.Stage
	BFHit bool
}

// OnInterest walks an Interest arriving on face from through the
// pipeline: Protocol 2 (which stamps i.Flag), then the content store (a
// hit is answered as Protocol 3 decides: when the tag fails, a bare NACK
// to a client, the content alongside the NACK to a router — the paper's
// §5.B trade-off), then PIT admission and the FIB.
func (c *Core) OnInterest(i *ndn.Interest, from ndn.FaceID, checks Checks, now time.Time) Step {
	if checks&Protocol2 == 0 || i.Kind != ndn.KindContent {
		return c.pipeline(i, from, checks, now)
	}
	dec := c.tactic.EdgeOnInterestFast(i.Tag, i.AccessPath, i.Name, now)
	if dec.NeedsVerify() {
		return Step{Action: Verify, Stage: dec.Stage, Pending: Pending{Op: enforce.OpEdgeInterest, checks: checks}}
	}
	return c.edgeDecided(i, from, checks, dec, now)
}

// ResumeInterest continues from a Verify step with the verdict: an edge
// verdict refuses the Interest or lets it into the rest of the pipeline
// (which may stop at a second Verify), a content verdict answers it.
func (c *Core) ResumeInterest(i *ndn.Interest, from ndn.FaceID, p Pending, dec enforce.Verdict, now time.Time) Step {
	if p.Op == enforce.OpContent {
		return contentDecided(p.Content, p.checks, dec)
	}
	return c.edgeDecided(i, from, p.checks, dec, now)
}

// edgeDecided acts on Protocol 2's final verdict.
func (c *Core) edgeDecided(i *ndn.Interest, from ndn.FaceID, checks Checks, dec enforce.Verdict, now time.Time) Step {
	if dec.Denied() {
		return Step{Action: Reply, Stage: dec.Stage, Reply: Answer{Nack: true, Reason: dec.Reason}}
	}
	i.Flag = dec.Flag
	st := c.pipeline(i, from, checks, now)
	if st.Stage == enforce.StageNone {
		st.Stage, st.BFHit = dec.Stage, dec.BFHit
	}
	return st
}

// contentDecided answers a content-store hit with Protocol 3's verdict.
// A denial carries the content alongside the NACK (§5.B) only toward a
// router, for the valid requests aggregated there; an arrival that met
// Protocol 2 is a client's, and a client denied gets a bare NACK, as on
// the Data path.
func contentDecided(content *core.Content, checks Checks, dec enforce.Verdict) Step {
	if dec.Denied() && checks&Protocol2 != 0 {
		content = nil
	}
	return Step{Action: Reply, Stage: dec.Stage, BFHit: dec.BFHit,
		Reply: Answer{Content: content, Flag: dec.Flag, Nack: dec.Denied(), Reason: dec.Reason}}
}

// pipeline is the walk after edge enforcement: CS, PIT, FIB.
func (c *Core) pipeline(i *ndn.Interest, from ndn.FaceID, checks Checks, now time.Time) Step {
	if i.Kind == ndn.KindContent {
		if content, ok := c.cs.Lookup(i.Name); ok {
			if checks&Protocol3 == 0 {
				return Step{Action: Reply, Reply: Answer{Content: content, Flag: i.Flag}}
			}
			dec := c.tactic.ContentOnInterestFast(i.Tag, content.Meta, i.Flag, now)
			if dec.NeedsVerify() {
				return Step{Action: Verify, Stage: dec.Stage,
					Pending: Pending{Op: enforce.OpContent, Content: content, Flag: dec.Flag, checks: checks}}
			}
			return contentDecided(content, checks, dec)
		}
	}
	if c.role == RoleOrigin {
		if i.Kind == ndn.KindRegistration {
			return Step{Action: Register}
		}
		return Step{Action: Drop, Cause: DropNoRoute} // not published here
	}
	outcome, outFace := c.pit.Admit(i.Name,
		ndn.PITRecord{Tag: i.Tag, Flag: i.Flag, InFace: from, Nonce: i.Nonce, Arrived: now},
		now, now.Add(c.pitLifetime))
	switch outcome {
	case ndn.PITDuplicate:
		return Step{Action: Drop, Cause: DropDupNonce}
	case ndn.PITAggregated:
		return Step{Action: Aggregate, Face: outFace}
	}
	face, ok := c.fib.Lookup(i.Name)
	if !ok {
		return Step{Action: Drop, Cause: DropNoRoute}
	}
	c.pit.SetOutFace(i.Name, face)
	return Step{Action: Forward, Face: face}
}

// OnData admits a Data arriving on face from. A Data changes state only
// as the answer to a pending Interest, on the face that Interest was
// forwarded to: anything else — a client pushing content or a forged tag
// at its edge — is DropUnsolicited before the content store and the Bloom
// filter, its entry left pending. Otherwise the entry is consumed, its
// requesters appended to recs (primary first; a caller's stack array keeps
// the common case off the heap), the content cached if the driver allows,
// and a registration response's fresh tag inserted into an edge's filter
// (Protocol 2 lines 11-12). A registration response then goes to every
// requester as it came; any other Data is decided per requester, OnRecord.
// An origin forwards nothing, so every Data it hears is unsolicited.
func (c *Core) OnData(d *ndn.Data, from ndn.FaceID, cache bool, recs []ndn.PITRecord) ([]ndn.PITRecord, string) {
	if c.role == RoleOrigin {
		return recs, DropUnsolicited
	}
	recs, ok := c.pit.ConsumeFrom(d.Name, from, recs)
	if !ok {
		return recs, DropUnsolicited
	}
	switch {
	case d.Registration == nil:
		if cache && d.Content != nil {
			c.cs.Insert(d.Content)
		}
	case c.role == RoleEdge && d.Registration.Tag != nil:
		c.tactic.EdgeOnTagResponse(d.Registration.Tag)
	}
	return recs, ""
}

// Delivery is what one requester of an arrived Data gets: Answer, sent
// toward the record's face under its tag. When an edge delivers nothing
// (Protocol 2 On-Content) Cause is DropUndeliverable and Answer the bare
// NACK a driver may send the requester, tagged or not, so it fails fast
// instead of timing out. Stage is the checkpoint consulted (see
// Step.Stage); Minted reports the NACK originates at this node rather
// than being relayed.
type Delivery struct {
	Cause  string
	Answer Answer
	Stage  enforce.Stage
	Minted bool
}

// OnRecord decides one requester of d (enforce.Router.OnDataRecord; an
// aggregated record's tag is verified inline). The primary is the record
// whose Interest was forwarded.
func (c *Core) OnRecord(d *ndn.Data, rec ndn.PITRecord, primary bool, now time.Time) Delivery {
	v := c.tactic.OnDataRecord(c.role == RoleEdge, primary, rec.Tag, rec.Flag,
		enforce.ArrivedData{Content: d.Content, Flag: d.Flag, Nack: d.Nack, NackReason: d.NackReason}, now)
	if v.Deliver == enforce.DeliverNothing {
		return Delivery{Cause: DropUndeliverable, Stage: v.Stage, Answer: Answer{Nack: true, Reason: v.Reason}}
	}
	return Delivery{Stage: v.Stage, Minted: v.Minted,
		Answer: Answer{Content: d.Content, Flag: v.Flag, Nack: v.Deliver.Nack(), Reason: v.Reason}}
}

// errOriginControl is why an origin refuses every control frame.
var errOriginControl = errors.New("node: an origin takes no control frames")

// ControlStep is the core's answer to one control frame: its Outcome, and
// what the driver does next. Flood relays an applied revocation or
// rotation to the node's other neighbours (the simulator's delivery is
// network-wide already); a BF-sync advert is hop-local. FlushRevoked
// refuses parked verifications whose tag the frame revoked. Err says why
// a frame is ControlInvalid.
type ControlStep struct {
	Outcome      string
	Flood        bool
	FlushRevoked bool
	Err          error
}

// OnControl applies one control frame: a revocation-set update or an
// epoch rotation when it advances the node's version (ControlStale
// otherwise), a BF-sync advert merged by MergeWords' rule (the words ORed
// in, the count raised to the sender's). An origin has no upstream to
// hear a push from and no peer to sync with: every frame is invalid there.
func (c *Core) OnControl(m *ndn.Control) ControlStep {
	if c.role == RoleOrigin {
		return ControlStep{Outcome: ControlInvalid, Err: errOriginControl}
	}
	switch m.Kind {
	case ndn.CtrlRevoke:
		if c.tactic.ApplyRevocation(m.Version, m.Full, m.Revoked) {
			return ControlStep{Outcome: ControlApplied, Flood: true, FlushRevoked: true}
		}
	case ndn.CtrlRotate:
		if c.tactic.RotateEpoch(m.Version) {
			return ControlStep{Outcome: ControlApplied, Flood: true}
		}
	case ndn.CtrlBFSync:
		if err := c.tactic.Bloom().MergeWords(m.Bits, m.Hashes, m.Words, m.Count); err != nil {
			return ControlStep{Outcome: ControlInvalid, Err: err}
		}
		return ControlStep{Outcome: ControlApplied}
	default:
		return ControlStep{Outcome: ControlInvalid, Err: fmt.Errorf("node: unknown control kind %v", m.Kind)}
	}
	return ControlStep{Outcome: ControlStale}
}

// BFAdvert is the node's BF-sync advert from origin: its filter's shape,
// non-zero words and element count.
func (c *Core) BFAdvert(origin string) *ndn.Control {
	bf := c.tactic.Bloom()
	return &ndn.Control{Kind: ndn.CtrlBFSync, Origin: origin, Bits: bf.Bits(), Hashes: bf.Hashes(), Words: bf.Words(), Count: bf.Count()}
}
