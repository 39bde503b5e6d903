// Structured event log: a bounded lock-free ring of typed operator
// events (face churn, uplink redials, revocation pushes, BF epoch
// rotations, verify-shed bursts, reassembly evictions). Counters say
// how much; events say what happened and when. The ring reuses the
// flight-recorder idiom (recorder.go): writers never block and the
// newest N events survive, exposed over /eventz (eventz.go) and
// optionally bridged to a log/slog logger for stderr visibility on
// tacticd.
package obs

import (
	"context"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// EventType names one kind of operator event. The values are the wire
// vocabulary of /eventz and the tacticmon fleet poller — stable strings,
// not display text.
type EventType string

// Event types emitted by the live stack.
const (
	// EventFaceUp / EventFaceDown mark a forwarder face attaching and
	// detaching (any cause: peer reset, idle timeout, fatal send error).
	EventFaceUp   EventType = "face_up"
	EventFaceDown EventType = "face_down"
	// EventUplinkUp / EventUplinkDown mark a managed uplink attaching
	// and dying; a down event means the supervisor is redialing.
	EventUplinkUp   EventType = "uplink_up"
	EventUplinkDown EventType = "uplink_down"
	// EventRevocation marks a revocation-set update applied (Value is
	// the entry count carried by the push).
	EventRevocation EventType = "revocation"
	// EventEpochRotate marks a BF epoch rotation applied (Value is the
	// new epoch).
	EventEpochRotate EventType = "epoch_rotate"
	// EventShedBurst marks a burst of verify-pool sheds (Value is how
	// many Interests were shed since the previous burst event; bursts
	// are rate-limited to roughly one event per second per emitter).
	EventShedBurst EventType = "shed_burst"
	// EventReassemblyEvict marks a burst of fragment-reassembly
	// evictions on a datagram face (Value is the evicted partial-packet
	// count since the previous burst event).
	EventReassemblyEvict EventType = "reassembly_evict"
	// EventHealthChange marks a node health-status transition (Attr is
	// "old->new" plus the firing rules).
	EventHealthChange EventType = "health_change"
)

// Event is one operator-facing occurrence.
type Event struct {
	// Seq is the per-node emission sequence number (1-based, gapless).
	Seq uint64 `json:"seq"`
	// Time is the emission instant.
	Time time.Time `json:"time"`
	// Type discriminates the event.
	Type EventType `json:"type"`
	// Node is the emitting node's identity.
	Node string `json:"node,omitempty"`
	// Face is the face ID the event concerns, -1 when not face-scoped.
	Face int `json:"face"`
	// Attr is free-form detail (an address, a reason, a transition).
	Attr string `json:"attr,omitempty"`
	// Value is the event's numeric payload (a count, an epoch).
	Value uint64 `json:"value,omitempty"`
}

// Events is a bounded lock-free ring of the most recent events plus an
// optional slog bridge and live subscribers. Emit costs one atomic
// fetch-add and one pointer store when nobody subscribes; it never
// blocks. A nil *Events ignores emissions and snapshots empty, so
// instrumented packages need not guard call sites.
type Events struct {
	node  string
	slots []atomic.Pointer[Event]
	seq   atomic.Uint64

	logger atomic.Pointer[slog.Logger]

	// nsubs mirrors len(subs) so Emit skips the mutex entirely while
	// nobody is subscribed (the common case outside /eventz?follow).
	nsubs   atomic.Int32
	mu      sync.Mutex
	subs    map[uint64]chan Event
	nextSub uint64
}

// NewEvents creates an event log for node retaining the most recent n
// events (rounded up to a power of two; n <= 0 selects 256).
func NewEvents(node string, n int) *Events {
	if n <= 0 {
		n = 256
	}
	size := 1
	for size < n {
		size <<= 1
	}
	return &Events{
		node:  node,
		slots: make([]atomic.Pointer[Event], size),
		subs:  make(map[uint64]chan Event),
	}
}

// Node returns the emitting node's identity ("" for nil).
func (e *Events) Node() string {
	if e == nil {
		return ""
	}
	return e.node
}

// Total returns how many events were ever emitted, including ones the
// ring has since overwritten (0 for nil).
func (e *Events) Total() uint64 {
	if e == nil {
		return 0
	}
	return e.seq.Load()
}

// SetLogger bridges every emitted event to l (nil detaches). Down-ish
// events (face/uplink death, sheds, evictions) log at Warn, the rest at
// Info.
func (e *Events) SetLogger(l *slog.Logger) {
	if e == nil {
		return
	}
	e.logger.Store(l)
}

// Emit records one event: face is the concerned face ID (-1 when not
// face-scoped), attr free-form detail, value the numeric payload. Safe
// from any goroutine; never blocks (slow subscribers miss events rather
// than stalling the emitter).
func (e *Events) Emit(typ EventType, face int, attr string, value uint64) {
	if e == nil {
		return
	}
	ev := &Event{
		Seq:   e.seq.Add(1),
		Time:  time.Now(),
		Type:  typ,
		Node:  e.node,
		Face:  face,
		Attr:  attr,
		Value: value,
	}
	e.slots[(ev.Seq-1)&uint64(len(e.slots)-1)].Store(ev)
	if l := e.logger.Load(); l != nil {
		l.LogAttrs(context.Background(), eventLevel(typ), string(typ),
			slog.String("node", ev.Node),
			slog.Int("face", ev.Face),
			slog.String("attr", ev.Attr),
			slog.Uint64("value", ev.Value),
			slog.Uint64("seq", ev.Seq))
	}
	if e.nsubs.Load() == 0 {
		return
	}
	e.mu.Lock()
	for _, ch := range e.subs {
		select {
		case ch <- *ev:
		default: // subscriber lagging; it still sees the ring via Snapshot
		}
	}
	e.mu.Unlock()
}

// eventLevel maps an event type to its slog severity.
func eventLevel(typ EventType) slog.Level {
	switch typ {
	case EventFaceDown, EventUplinkDown, EventShedBurst, EventReassemblyEvict:
		return slog.LevelWarn
	}
	return slog.LevelInfo
}

// Snapshot copies the retained events, oldest first. Concurrent emits
// may skew ordering near the write cursor; every returned event is
// complete (events are immutable once stored).
func (e *Events) Snapshot() []Event {
	if e == nil {
		return nil
	}
	n := uint64(len(e.slots))
	cur := e.seq.Load()
	out := make([]Event, 0, n)
	for i := uint64(0); i < n; i++ {
		if ev := e.slots[(cur+i)&(n-1)].Load(); ev != nil {
			out = append(out, *ev)
		}
	}
	return out
}

// Subscribe registers a live event channel of the given buffer depth
// (<= 0 selects 16) and returns it with a cancel func. Events emitted
// while the channel is full are dropped for that subscriber — use
// Snapshot to recover the recent past.
func (e *Events) Subscribe(buf int) (<-chan Event, func()) {
	if e == nil {
		ch := make(chan Event)
		close(ch)
		return ch, func() {}
	}
	if buf <= 0 {
		buf = 16
	}
	ch := make(chan Event, buf)
	e.mu.Lock()
	id := e.nextSub
	e.nextSub++
	e.subs[id] = ch
	e.mu.Unlock()
	e.nsubs.Add(1)
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			e.mu.Lock()
			delete(e.subs, id)
			e.mu.Unlock()
			e.nsubs.Add(-1)
		})
	}
	return ch, cancel
}

// BurstGate coalesces a stream of occurrences into at most one event
// per interval: Add accumulates, and returns non-zero — the total
// accumulated since the last burst — when the caller should emit. The
// first occurrence emits immediately, so a single shed is still
// visible; later ones batch. The zero value gates at one event per
// second. Safe for concurrent use; occurrences noted after the last
// emission of a quiet period carry over into the next burst.
type BurstGate struct {
	// Interval is the minimum spacing between emissions (0 = 1 s). Set
	// it before first use; it is read unsynchronised.
	Interval time.Duration

	last    atomic.Int64
	pending atomic.Uint64
}

// Add notes n occurrences and returns the burst total to emit, or 0
// when the gate is holding.
func (g *BurstGate) Add(n uint64) uint64 {
	if g == nil {
		return 0
	}
	g.pending.Add(n)
	iv := int64(g.Interval)
	if iv <= 0 {
		iv = int64(time.Second)
	}
	now := time.Now().UnixNano()
	last := g.last.Load()
	if now-last < iv || !g.last.CompareAndSwap(last, now) {
		return 0
	}
	return g.pending.Swap(0)
}
