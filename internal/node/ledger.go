package node

import (
	"sync/atomic"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/ndn"
)

// Ledger is a node's packet accounting, the one place a packet's fate is
// counted: the Core counts every Step, Delivery and ControlStep it
// returns, and a driver reports the two outcomes only it sees, a failed
// send (SendFailed) and a registration's result (Registered). Both
// planes' statistics and the live packet series read it. Each event is
// one atomic add into an array indexed by reason code, drop cause or
// control kind × outcome. It is an allocation of its own: its counters
// change on every packet, the Core's pointers never.
type Ledger struct {
	interests, data, csHits atomic.Uint64
	// A NACK is counted once: refused if it is a Protocol 2 refusal,
	// nacks otherwise.
	nacks, refused    [core.NumReasons]atomic.Uint64
	drops             [len(dropCauses)]atomic.Uint64
	control           [ndn.CtrlBFSync + 1][len(controlOutcomes)]atomic.Uint64 // kind 0: unknown
	issued, regFailed atomic.Uint64
}

// dropCauses indexes the ledger's drops (DropCauses is a view of it),
// controlOutcomes its control outcomes.
var (
	dropCauses      = [...]string{DropDupNonce, DropNoRoute, DropUnsolicited, DropUndeliverable, DropNoFace, DropSendErr}
	controlOutcomes = [...]string{ControlApplied, ControlStale, ControlInvalid}
)

// ControlKinds lists the frame kinds the ledger counts apart; any other
// is counted as ControlKindOther (and is always ControlInvalid).
// ControlOutcomes lists every control outcome.
var (
	ControlKinds    = []ndn.ControlKind{ndn.CtrlRevoke, ndn.CtrlRotate, ndn.CtrlBFSync}
	ControlOutcomes = controlOutcomes[:]
)

// ControlKindOther labels the control frames of a kind the node does not
// know.
const ControlKindOther = "other"

// RowRefused prefixes a Protocol 2 refusal's row in Rows.
const RowRefused = "refused:"

func index(vocabulary []string, key string) int {
	for i, v := range vocabulary {
		if v == key {
			return i
		}
	}
	panic("node: " + key + " is not in the ledger's vocabulary")
}

func (l *Ledger) drop(cause string) { l.drops[index(dropCauses[:], cause)].Add(1) }

func (l *Ledger) nack(reason error) { l.nacks[core.ReasonCode(reason)].Add(1) }

func (l *Ledger) controlRow(kind ndn.ControlKind, outcome string) *atomic.Uint64 {
	if int(kind) >= len(l.control) {
		kind = 0
	}
	return &l.control[kind][index(controlOutcomes[:], outcome)]
}

// SendFailed counts a driver's failed send: DropNoFace when the face was
// gone, DropSendErr otherwise.
func (l *Ledger) SendFailed(faceGone bool) {
	if faceGone {
		l.drop(DropNoFace)
	} else {
		l.drop(DropSendErr)
	}
}

// Registered counts an origin's answer to a registration: a tag issued,
// or the request dropped.
func (l *Ledger) Registered(ok bool) {
	if ok {
		l.issued.Add(1)
	} else {
		l.regFailed.Add(1)
	}
}

// Interests counts the Interests that arrived.
func (l *Ledger) Interests() uint64 { return l.interests.Load() }

// Data counts the Data that arrived.
func (l *Ledger) Data() uint64 { return l.data.Load() }

// CSHits counts the Interests answered with content and no NACK.
func (l *Ledger) CSHits() uint64 { return l.csHits.Load() }

// NACKs counts the NACKs sent or minted here for the reason with wire
// code code, Protocol 2 refusals included.
func (l *Ledger) NACKs(code uint8) uint64 { return l.nacks[code].Load() + l.refused[code].Load() }

// Drops counts the packets left unanswered for cause (one of DropCauses).
func (l *Ledger) Drops(cause string) uint64 { return l.drops[index(dropCauses[:], cause)].Load() }

// Control counts the control frames of kind with outcome.
func (l *Ledger) Control(kind ndn.ControlKind, outcome string) uint64 {
	return l.controlRow(kind, outcome).Load()
}

// Registrations counts an origin's issued (ok) or dropped registrations.
func (l *Ledger) Registrations(ok bool) uint64 {
	if ok {
		return l.issued.Load()
	}
	return l.regFailed.Load()
}

// TotalNACKs sums NACKs over every reason.
func (l *Ledger) TotalNACKs() (n uint64) {
	for code := range l.nacks {
		n += l.NACKs(uint8(code))
	}
	return n
}

// TotalDrops sums Drops over every cause.
func (l *Ledger) TotalDrops() (n uint64) {
	for i := range l.drops {
		n += l.drops[i].Load()
	}
	return n
}

// Rows lists the non-zero NACK and drop counts keyed as spans end —
// OutcomeNack plus the reason label, OutcomeDrop plus the cause — but a
// Protocol 2 refusal as RowRefused plus its label. Two nodes that did the
// same with the same packets have equal rows.
func (l *Ledger) Rows() map[string]uint64 {
	rows := make(map[string]uint64)
	add := func(key string, n uint64) {
		if n > 0 {
			rows[key] = n
		}
	}
	for code, label := range core.ReasonLabels() {
		add(OutcomeNack+label, l.nacks[code].Load())
		add(RowRefused+label, l.refused[code].Load())
	}
	for i, cause := range dropCauses {
		add(OutcomeDrop+cause, l.drops[i].Load())
	}
	return rows
}

// ControlRows lists the non-zero control-frame counts keyed kind/outcome.
func (l *Ledger) ControlRows() map[string]uint64 {
	rows := make(map[string]uint64)
	for k := range l.control {
		kind := ControlKindOther
		if k > 0 {
			kind = ndn.ControlKind(k).String()
		}
		for o, outcome := range controlOutcomes {
			if n := l.control[k][o].Load(); n > 0 {
				rows[kind+"/"+outcome] = n
			}
		}
	}
	return rows
}
