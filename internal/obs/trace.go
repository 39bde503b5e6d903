// Distributed per-packet tracing: a Span follows one packet through a
// node's enforcement pipeline (pre-check → BF lookup → signature verify
// → forward/NACK) and, when it ends, is emitted as one JSON line and/or
// retained in the node's bounded flight recorder (recorder.go). Spans
// carry the wire TraceCtx (trace ID, parent span ID, hop count), so
// spans recorded by different nodes assemble into end-to-end path
// timelines (collector.go). A tracer reads its driver's clock: the wall
// clock for a live node, the event engine's for a simulated one.
//
// The hot-path contract: an unsampled packet costs one atomic add and a
// branch-free fixed-point multiply — zero allocations. Sampled packets
// reuse pooled Span objects and a per-tracer encoder buffer.
package obs

import (
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceCtx is the tracing context a packet carries on the wire
// (ndn.TraceContext is this type). The originating client makes the
// head-sampling decision; a hop that records a span re-parents the
// context to it and every hop increments Hops (Span.Onward), so a
// collector can reassemble the path. obs stays dependency-free.
type TraceCtx struct {
	// TraceID identifies the end-to-end request; zero means untraced,
	// and an untraced packet carries no TLV.
	TraceID uint64
	// ParentID is the span ID of the previous hop's span — the sender's
	// span when the sender traced the packet, or inherited unchanged
	// across hops that do not trace.
	ParentID uint64
	// Sampled is the head-sampling decision: when set, every hop with a
	// tracer records a span regardless of its local sampling rate.
	Sampled bool
	// Hops counts the nodes the packet has traversed, the originator
	// included (the originator's span is hop 0 and it sends Hops=1); the
	// receiving hop's span records it as its hop index.
	Hops uint8
}

// Valid reports whether the context marks a traced packet.
func (tc TraceCtx) Valid() bool { return tc.TraceID != 0 }

// Tracer records sampled trace spans, writing JSON lines to w and/or
// retaining them in a flight-recorder ring. A nil Tracer (or the nil
// Span an unsampled Start returns) no-ops, so instrumented code traces
// unconditionally.
type Tracer struct {
	node string
	role string
	now  func() time.Time
	// thresh is the local sampling rate in 32.32 fixed point: span seq i
	// is kept iff (i·thresh) mod 2³² < thresh, the integer form of
	// stride sampling (exactly ⌊n·sample⌋ of n spans kept, evenly
	// spread, no RNG and no floating point on the hot path).
	thresh uint64
	idBase uint64
	rec    *Recorder
	mu     sync.Mutex // guards w and buf
	w      io.Writer
	buf    []byte
	pool   sync.Pool
	seq    atomic.Uint64
	ids    atomic.Uint64
	spans  atomic.Uint64
}

// NewTracer creates a tracer writing JSON lines to w. node names the
// emitting process in every span. sample in (0,1] is the fraction of
// packets locally sampled: 1 traces everything; 0.01 keeps ~one in a
// hundred. Wire-sampled packets (TraceCtx.Sampled) are always recorded.
func NewTracer(node string, sample float64, w io.Writer) *Tracer {
	if sample <= 0 || w == nil {
		return nil
	}
	return NewTracerRecorder(node, sample, w, nil)
}

// NewTracerRecorder creates a tracer that writes JSON lines to w (may
// be nil) and retains finished spans in rec (may be nil). Unlike
// NewTracer, sample <= 0 is allowed and means "record only wire-sampled
// packets" — the mode a forwarder runs in when clients own the
// head-sampling decision. Returns nil only when there is nowhere to
// deliver spans.
func NewTracerRecorder(node string, sample float64, w io.Writer, rec *Recorder) *Tracer {
	if w == nil && rec == nil {
		return nil
	}
	t := &Tracer{node: node, now: time.Now, w: w, rec: rec, idBase: splitmix64(fnv1a(node))}
	if sample > 0 {
		if sample > 1 {
			sample = 1
		}
		t.thresh = uint64(sample*float64(1<<32) + 0.5)
		if t.thresh == 0 {
			t.thresh = 1
		}
	}
	t.pool.New = func() any { return new(Span) }
	return t
}

// SetRole labels this node's spans with a topology role ("edge",
// "core", "client", "producer"). Call before the tracer is used; it is
// not synchronised with concurrent spans.
func (t *Tracer) SetRole(role string) {
	if t != nil {
		t.role = role
	}
}

// SetClock makes the tracer take every timestamp from now instead of the
// wall clock — how the simulator records spans in virtual time. Call
// before the tracer is used, like SetRole.
func (t *Tracer) SetClock(now func() time.Time) {
	if t != nil {
		t.now = now
	}
}

// Node returns the tracer's node name ("" for nil).
func (t *Tracer) Node() string {
	if t == nil {
		return ""
	}
	return t.node
}

// Recorder returns the tracer's flight recorder, if any.
func (t *Tracer) Recorder() *Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// Spans returns the number of spans recorded.
func (t *Tracer) Spans() uint64 {
	if t == nil {
		return 0
	}
	return t.spans.Load()
}

// newID mints a process-unique non-zero 64-bit ID.
func (t *Tracer) newID() uint64 {
	for {
		if id := splitmix64(t.idBase + t.ids.Add(1)); id != 0 {
			return id
		}
	}
}

// splitmix64 is the SplitMix64 finalizer — a cheap bijective mixer that
// turns a counter into well-distributed IDs.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// fnv1a hashes a string (FNV-1a 64).
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// SpanEvent is one annotated pipeline stage inside a span.
type SpanEvent struct {
	// Stage names the pipeline step ("decode", "bf_lookup", "verify",
	// "pit_cs", "encode_send", "precheck", "flag", ...).
	Stage string `json:"stage"`
	// AtMicros is the stage's offset from span start in microseconds.
	AtMicros int64 `json:"us"`
	// DurMicros is the stage's duration in microseconds when measured
	// (zero when the event is a point annotation).
	DurMicros int64 `json:"stage_us,omitempty"`
	// Detail carries a stage-specific annotation ("hit", "miss",
	// "reason=...", "F=0.0001").
	Detail string `json:"d,omitempty"`
}

// SpanRecord is the finished-span shape: the JSON line a tracer emits
// and the unit the flight recorder and collector handle. Trace, Span,
// and Parent are lowercase-hex IDs ("" when the span is node-local
// only).
type SpanRecord struct {
	Time      string      `json:"t"`
	Node      string      `json:"node"`
	Role      string      `json:"role,omitempty"`
	Kind      string      `json:"kind"`
	Name      string      `json:"name"`
	Trace     string      `json:"trace,omitempty"`
	Span      string      `json:"span,omitempty"`
	Parent    string      `json:"parent,omitempty"`
	Hop       int         `json:"hop"`
	Seq       uint64      `json:"seq"`
	StartNano int64       `json:"ts_ns"`
	Events    []SpanEvent `json:"events,omitempty"`
	Outcome   string      `json:"outcome"`
	DurMicro  int64       `json:"dur_us"`
}

// HexID renders a trace/span ID the way SpanRecord stores it.
func HexID(id uint64) string {
	if id == 0 {
		return ""
	}
	return strconv.FormatUint(id, 16)
}

// ParseHexID reverses HexID (0 for empty or malformed input).
func ParseHexID(s string) uint64 {
	id, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0
	}
	return id
}

// maxSpanEvents bounds a span's inline event storage; events beyond it
// are dropped (the pipeline has ~6 stages, so 12 leaves headroom).
const maxSpanEvents = 12

// Span is one in-flight trace. It is owned by a single goroutine (the
// pipeline serialises packet handling) and must not be shared or used
// after End, which recycles it.
type Span struct {
	tracer  *Tracer
	start   time.Time
	kind    string
	name    string
	traceID uint64
	spanID  uint64
	parent  uint64
	hop     uint8
	wire    bool // trace ID came off the wire (vs. minted locally)
	sampled bool // the originator's head-sampling decision
	seq     uint64
	nev     int
	events  [maxSpanEvents]SpanEvent
}

// StartCtx begins a span for a packet carrying wire trace context ctx
// (the zero TraceCtx for untraced packets). The packet is recorded when
// the wire says so (ctx.Sampled — the originator's head-sampling
// decision) or when the local stride sampler fires; otherwise StartCtx
// returns nil without allocating.
func (t *Tracer) StartCtx(ctx TraceCtx, kind, name string) *Span {
	if t == nil {
		return nil
	}
	seq := t.seq.Add(1)
	// The local decision is branch-free arithmetic: one multiply-wrap
	// and a compare in 32.32 fixed point (see Tracer.thresh).
	if !ctx.Sampled && (seq*t.thresh)&0xFFFFFFFF >= t.thresh {
		return nil
	}
	sp := t.pool.Get().(*Span)
	*sp = Span{
		tracer:  t,
		start:   t.now(),
		kind:    kind,
		name:    name,
		traceID: ctx.TraceID,
		parent:  ctx.ParentID,
		hop:     ctx.Hops,
		wire:    ctx.TraceID != 0,
		sampled: ctx.Sampled,
		seq:     seq,
	}
	if sp.traceID == 0 {
		sp.traceID = t.newID() // node-local trace
	}
	sp.spanID = t.newID()
	return sp
}

// StartRoot begins an always-sampled root span (hop 0) under a freshly
// minted trace ID — how an originating client makes the head-sampling
// decision. Returns nil only for a nil tracer.
func (t *Tracer) StartRoot(kind, name string) *Span {
	if t == nil {
		return nil
	}
	sp := t.pool.Get().(*Span)
	*sp = Span{
		tracer:  t,
		start:   t.now(),
		kind:    kind,
		name:    name,
		traceID: t.newID(),
		wire:    true,
		sampled: true,
		seq:     t.seq.Add(1),
	}
	sp.spanID = t.newID()
	return sp
}

// TraceID returns the span's trace ID (0 for nil).
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.traceID
}

// Onward returns the trace context to stamp on packets sent while
// handling one that arrived carrying tc (the zero TraceCtx when a packet
// originates here). A span on the wire's trace — one StartCtx opened for
// a traced packet, or a root span — re-parents it: same trace, this span
// as parent, one hop deeper, the originator's head-sampling decision
// carried through. Otherwise a traced packet passes through with its hop
// count advanced, so assembled traces show the true path length even
// past hops that record nothing; an untraced one stays untraced.
func (s *Span) Onward(tc TraceCtx) TraceCtx {
	switch {
	case s != nil && s.wire:
		return TraceCtx{TraceID: s.traceID, ParentID: s.spanID, Sampled: s.sampled, Hops: s.hop + 1}
	case tc.Valid():
		tc.Hops++
		return tc
	}
	return TraceCtx{}
}

// Event annotates one pipeline stage.
func (s *Span) Event(stage, detail string) {
	s.EventDur(stage, 0, detail)
}

// EventDur annotates one pipeline stage with a measured duration.
func (s *Span) EventDur(stage string, d time.Duration, detail string) {
	if s == nil || s.nev >= maxSpanEvents {
		return
	}
	s.events[s.nev] = SpanEvent{
		Stage:     stage,
		AtMicros:  s.tracer.now().Sub(s.start).Microseconds(),
		DurMicros: d.Microseconds(),
		Detail:    detail,
	}
	s.nev++
}

// End finishes the span with an outcome (node's Outcome vocabulary:
// "forwarded", "cs_hit", "aggregated", "nack:expired",
// "drop:no_route", ...), records it, and recycles the span — it must not
// be touched afterwards. A positive proc is the hop's charged
// processing time, the span's duration where the clock does not advance
// while a hop works (a simulator handler runs in one virtual instant);
// otherwise, as live callers pass 0, the duration is the time elapsed on
// the tracer's clock since the span started.
func (s *Span) End(outcome string, proc time.Duration) {
	if s == nil {
		return
	}
	t := s.tracer
	if proc <= 0 {
		proc = t.now().Sub(s.start)
	}
	rec := &SpanRecord{
		Time:      s.start.UTC().Format(time.RFC3339Nano),
		Node:      t.node,
		Role:      t.role,
		Kind:      s.kind,
		Name:      s.name,
		Hop:       int(s.hop),
		Seq:       s.seq,
		StartNano: s.start.UnixNano(),
		Outcome:   outcome,
		DurMicro:  proc.Microseconds(),
	}
	rec.Trace = HexID(s.traceID)
	rec.Span = HexID(s.spanID)
	if s.parent != 0 {
		rec.Parent = HexID(s.parent)
	}
	if s.nev > 0 {
		rec.Events = append([]SpanEvent(nil), s.events[:s.nev]...)
	}
	t.pool.Put(s)
	t.emit(rec)
}

// emit delivers a finished record to the writer and flight recorder.
func (t *Tracer) emit(rec *SpanRecord) {
	if t.w != nil {
		t.mu.Lock()
		t.buf = appendSpanJSON(t.buf[:0], rec)
		t.buf = append(t.buf, '\n')
		t.w.Write(t.buf) //nolint:errcheck // tracing is best-effort
		t.mu.Unlock()
	}
	t.rec.add(rec)
	t.spans.Add(1)
}

// appendSpanJSON hand-rolls the record's JSON line into buf, mirroring
// SpanRecord's struct tags, so the sampled path reuses one buffer
// instead of allocating through encoding/json.
func appendSpanJSON(buf []byte, r *SpanRecord) []byte {
	buf = append(buf, `{"t":`...)
	buf = appendJSONString(buf, r.Time)
	buf = append(buf, `,"node":`...)
	buf = appendJSONString(buf, r.Node)
	if r.Role != "" {
		buf = append(buf, `,"role":`...)
		buf = appendJSONString(buf, r.Role)
	}
	buf = append(buf, `,"kind":`...)
	buf = appendJSONString(buf, r.Kind)
	buf = append(buf, `,"name":`...)
	buf = appendJSONString(buf, r.Name)
	if r.Trace != "" {
		buf = append(buf, `,"trace":"`...)
		buf = append(buf, r.Trace...)
		buf = append(buf, '"')
	}
	if r.Span != "" {
		buf = append(buf, `,"span":"`...)
		buf = append(buf, r.Span...)
		buf = append(buf, '"')
	}
	if r.Parent != "" {
		buf = append(buf, `,"parent":"`...)
		buf = append(buf, r.Parent...)
		buf = append(buf, '"')
	}
	buf = append(buf, `,"hop":`...)
	buf = strconv.AppendInt(buf, int64(r.Hop), 10)
	buf = append(buf, `,"seq":`...)
	buf = strconv.AppendUint(buf, r.Seq, 10)
	buf = append(buf, `,"ts_ns":`...)
	buf = strconv.AppendInt(buf, r.StartNano, 10)
	if len(r.Events) > 0 {
		buf = append(buf, `,"events":[`...)
		for i := range r.Events {
			ev := &r.Events[i]
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, `{"stage":`...)
			buf = appendJSONString(buf, ev.Stage)
			buf = append(buf, `,"us":`...)
			buf = strconv.AppendInt(buf, ev.AtMicros, 10)
			if ev.DurMicros != 0 {
				buf = append(buf, `,"stage_us":`...)
				buf = strconv.AppendInt(buf, ev.DurMicros, 10)
			}
			if ev.Detail != "" {
				buf = append(buf, `,"d":`...)
				buf = appendJSONString(buf, ev.Detail)
			}
			buf = append(buf, '}')
		}
		buf = append(buf, ']')
	}
	buf = append(buf, `,"outcome":`...)
	buf = appendJSONString(buf, r.Outcome)
	buf = append(buf, `,"dur_us":`...)
	buf = strconv.AppendInt(buf, r.DurMicro, 10)
	return append(buf, '}')
}

const hexDigits = "0123456789abcdef"

// appendJSONString writes s as a JSON string, escaping quotes,
// backslashes, and control characters (input is assumed UTF-8, which
// passes through untouched).
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			buf = append(buf, '\\', c)
		case c < 0x20:
			buf = append(buf, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
		default:
			buf = append(buf, c)
		}
	}
	return append(buf, '"')
}
