// Package forwarder is the deployable counterpart of the simulator's
// router nodes: a concurrent TACTIC forwarder that speaks the TLV wire
// format over real connections (internal/transport), plus a Producer
// origin (a Forwarder itself) and a fetching Client. Together with
// cmd/tacticd (in its edge, core and producer roles) and cmd/tacticget
// they form a runnable TACTIC network on localhost or across machines.
//
// Concurrency model: one reader goroutine per face runs the enforcement
// pipeline directly, and the pipeline holds no global lock. Every layer
// it touches synchronises itself: the FIB is read-mostly behind an
// RWMutex, the PIT and the CS each behind one mutex (internal/ndn), and
// the Bloom filter is an atomic bitset. Signature verification runs off
// the readers, in the verify pool (verifypool.go), which is also where
// it is deduplicated: Interests carrying one unverified tag attach to
// the first of them there, so N faces presenting the tag cost one
// signature check and one filter insertion. The forwarder's own mutex
// guards only face-table membership (attach, detach, uplink
// registration); sends are per-face serialised by transport.Conn. A
// background ticker expires PIT entries.
package forwarder

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"github.com/tactic-icn/tactic/internal/bloom"
	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/enforce"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/node"
	"github.com/tactic-icn/tactic/internal/obs"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/transport"
)

// Role selects which TACTIC protocols a forwarder runs on its downstream
// faces: RoleEdge runs Protocol 2 on them and stamps access paths as the
// clients' first-hop entity, RoleCore runs the content/intermediate
// protocols only, RoleOrigin is a Producer's.
type Role = node.Role

// Roles.
const (
	RoleEdge   = node.RoleEdge
	RoleCore   = node.RoleCore
	RoleOrigin = node.RoleOrigin
)

// Config parameterises a forwarder.
type Config struct {
	// ID is the node identity; for edges it is also the access-path
	// entity identity clients bind their tags to.
	ID string
	// Role selects edge or core behaviour.
	Role Role
	// Registry holds the trusted provider keys.
	Registry *pki.Registry
	// Verifier, when non-nil, overrides Registry as the signature
	// verifier behind the tag validator (Registry still serves
	// registration and key distribution). Tests and the conformance
	// harness use it to interpose on verification timing.
	Verifier pki.Verifier
	// VerifyWorkers sizes the bounded async verification pool draining
	// the per-face admission queues (default 4).
	VerifyWorkers int
	// VerifyBudget caps parked + in-flight verifications per arrival
	// face; an over-budget face is shed with an Overload NACK (default
	// core.DefaultVerifyBudget; Tactic.DisableAdmission removes the cap
	// while keeping verification asynchronous).
	VerifyBudget int
	// BFCapacity and BFMaxFPP shape the Bloom filter (paper defaults
	// when zero).
	BFCapacity int
	BFMaxFPP   float64
	// CSCapacity is the content-store size in chunks.
	CSCapacity int
	// PITLifetime bounds pending Interests (default 4 s).
	PITLifetime time.Duration
	// WriteTimeout bounds each frame write on every face, so a wedged
	// peer surfaces as a send error and the face is recycled instead of
	// blocking the pipeline (0 = no deadline; tacticd and the origin use
	// DefaultWriteTimeout).
	WriteTimeout time.Duration
	// IdleTimeout recycles a face when no frame arrives for this long
	// (0 = never). Set it at least ~3x the peers' keepalive interval.
	IdleTimeout time.Duration
	// KeepaliveInterval sends liveness frames on every face at this
	// period so peers' idle timeouts hold off on quiet-but-healthy
	// links (0 = none).
	KeepaliveInterval time.Duration
	// BFSyncInterval advertises the validated-tag Bloom filter to the
	// registered sync peers at this period (0 = disabled; see
	// AddSyncPeer).
	BFSyncInterval time.Duration
	// Tactic selects protocol features.
	Tactic core.Config
	// Seed drives probabilistic re-validation (0 = time-seeded).
	Seed int64
	// Logf, when non-nil, receives diagnostic lines.
	Logf func(format string, args ...any)
	// Obs, when non-nil, receives runtime telemetry (counters, gauges,
	// histograms; see the Metric* constants).
	Obs *obs.Registry
	// Events, when non-nil, receives typed operator events (face churn,
	// uplink redials, revocations, epoch rotations, shed bursts) for
	// /eventz and the slog bridge. Emission is off the forwarding fast
	// path: only lifecycle transitions and rate-limited burst summaries
	// are recorded.
	Events *obs.Events
	// Tracer, when non-nil, samples per-packet trace spans through the
	// enforcement pipeline.
	Tracer *obs.Tracer
}

// DefaultWriteTimeout is the per-frame write deadline tacticd and the
// origin run with: long enough for any healthy peer, short enough that a
// client that stops reading frees the goroutine sending to it — a verify
// worker, when the reply follows a verification.
const DefaultWriteTimeout = 10 * time.Second

// faceState is one attached face (stream conn or datagram face).
type faceState struct {
	id         ndn.FaceID
	conn       transport.Face
	downstream bool
	// onDown, when non-nil, is invoked (once, from its own goroutine)
	// after the face is detached — managed uplinks use it to trigger
	// reconnection.
	onDown func()
	// series are the face's registry series (see exposeFace).
	series []transport.Series
}

// Forwarder is a real-time TACTIC router.
type Forwarder struct {
	cfg    Config
	tactic *enforce.Router
	start  time.Time
	m      *obsMetrics
	ev     *obs.Events // nil-safe event log (cfg.Events)
	// shedGate and rejectGate coalesce verify-shed events and refused
	// control frames' log lines to at most one per second; the counters
	// still count every occurrence.
	shedGate, rejectGate obs.BurstGate

	// fib, pit, and cs synchronise themselves (see internal/ndn); the
	// pipeline reaches them without holding f.mu.
	fib *ndn.FIB
	pit *ndn.PIT
	cs  *ndn.CS
	// node sequences them and the checkpoints for every packet
	// (internal/node); this type is its real-time driver.
	node *node.Core

	// vp parks Interests awaiting signature verification off the face
	// readers (see verifypool.go).
	vp *verifyPool

	// origin is the provider side of an origin-role node (see
	// producer.go), which answers the registration Interests the node
	// core hands it; nil at a router.
	origin *Producer

	mu      sync.RWMutex // guards faces, next, uplinks
	faces   map[ndn.FaceID]*faceState
	next    ndn.FaceID
	uplinks []*Uplink

	// Neighbor BF sync peers (see control.go), guarded by syncMu.
	syncMu    sync.Mutex
	syncPeers []ndn.FaceID

	wg     sync.WaitGroup
	closed chan struct{}
	once   sync.Once
}

// Stats counts forwarder activity.
type Stats struct {
	// Interests and Data count packets processed.
	Interests, Data uint64
	// CSHits counts content served from the store.
	CSHits uint64
	// NACKs counts invalidity signals sent.
	NACKs uint64
	// Drops counts packets dropped (no route, invalid, unsolicited).
	Drops uint64
	// VerifySheds counts Interests shed with Overload NACKs because
	// their arrival face exceeded its verification budget.
	VerifySheds uint64
	// VerifyFlushed counts parked Interests flushed with NACKs on face
	// death, revocation, or shutdown.
	VerifyFlushed uint64
}

// New creates a forwarder. Its role is RoleEdge or RoleCore: an origin
// needs a provider (NewProducerWithConfig).
func New(cfg Config) (*Forwarder, error) {
	if cfg.Role != RoleEdge && cfg.Role != RoleCore {
		return nil, fmt.Errorf("forwarder: invalid role %d", cfg.Role)
	}
	return newForwarder(cfg, nil)
}

// newForwarder creates a node of cfg.Role; origin is the provider side
// of an origin-role node, nil otherwise.
func newForwarder(cfg Config, origin *Producer) (*Forwarder, error) {
	if cfg.Registry == nil {
		return nil, errors.New("forwarder: registry required")
	}
	if cfg.BFCapacity <= 0 {
		cfg.BFCapacity = 500
	}
	if cfg.BFMaxFPP <= 0 {
		cfg.BFMaxFPP = 1e-4
	}
	if cfg.CSCapacity <= 0 {
		cfg.CSCapacity = 4096
	}
	if cfg.PITLifetime <= 0 {
		cfg.PITLifetime = 4 * time.Second
	}
	if cfg.VerifyWorkers <= 0 {
		cfg.VerifyWorkers = 4
	}
	if cfg.VerifyBudget <= 0 {
		cfg.VerifyBudget = core.DefaultVerifyBudget
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	bf, err := bloom.NewPaper(cfg.BFCapacity, cfg.BFMaxFPP)
	if err != nil {
		return nil, err
	}
	verifier := pki.Verifier(cfg.Registry)
	if cfg.Verifier != nil {
		verifier = cfg.Verifier
	}
	f := &Forwarder{
		cfg:    cfg,
		tactic: enforce.NewRouter(cfg.ID, bf, core.NewTagValidator(verifier), rand.New(rand.NewSource(seed)), cfg.Tactic),
		start:  time.Now(),
		m:      newObsMetrics(cfg.Obs, cfg.Role),
		ev:     cfg.Events,
		fib:    ndn.NewFIB(),
		pit:    ndn.NewPIT(),
		cs:     ndn.NewCS(cfg.CSCapacity),
		origin: origin,
		faces:  make(map[ndn.FaceID]*faceState),
		closed: make(chan struct{}),
	}
	f.node = node.New(f.tactic, f.fib, f.pit, f.cs, cfg.Role, cfg.PITLifetime)
	f.vp = newVerifyPool(f, cfg.VerifyWorkers, cfg.VerifyBudget)
	f.registerSampled()
	f.wg.Add(1)
	go f.expireLoop()
	if cfg.BFSyncInterval > 0 {
		f.wg.Add(1)
		go f.syncLoop(cfg.BFSyncInterval)
	}
	return f, nil
}

// logf emits a diagnostic line when logging is configured.
func (f *Forwarder) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

// expireLoop garbage-collects the PIT, accounting the silent expiries
// (the paper's 1 s request expiry, §8.B) so they are observable.
func (f *Forwarder) expireLoop() {
	defer f.wg.Done()
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-f.closed:
			return
		case now := <-t.C:
			if expired := f.pit.ExpireBefore(now); len(expired) > 0 {
				f.m.pitExpired.Add(uint64(len(expired)))
				f.logf("pit: %d entries expired unanswered", len(expired))
			}
		}
	}
}

// AddFace attaches a face (stream conn or datagram face) and starts
// its reader. downstream marks client-side faces (Protocol 2 applies
// there at edges).
func (f *Forwarder) AddFace(conn transport.Face, downstream bool) ndn.FaceID {
	return f.addFace(conn, downstream, nil)
}

// addFace is AddFace with a face-death hook and the configured
// transport health knobs applied.
func (f *Forwarder) addFace(conn transport.Face, downstream bool, onDown func()) ndn.FaceID {
	conn.SetWriteTimeout(f.cfg.WriteTimeout)
	conn.SetIdleTimeout(f.cfg.IdleTimeout)
	conn.StartKeepalive(f.cfg.KeepaliveInterval)
	f.mu.Lock()
	id := f.next
	f.next++
	fs := &faceState{id: id, conn: conn, downstream: downstream, onDown: onDown}
	f.exposeFace(fs) // before the face can be found: detaching reads fs.series
	f.faces[id] = fs
	f.mu.Unlock()
	f.ev.Emit(obs.EventFaceUp, int(id), faceAttr(conn, downstream), 0)

	f.wg.Add(1)
	go f.readLoop(fs)
	return id
}

// faceAttr renders a face's link kind and remote for event detail.
func faceAttr(conn transport.Face, downstream bool) string {
	attr := "upstream"
	if downstream {
		attr = "downstream"
	}
	if addr := conn.RemoteAddr(); addr != nil {
		attr += " " + addr.String()
	}
	return attr
}

// readLoop pumps one face's packets through the pipeline. Each packet is
// decoded into the loop's one scratch target and is valid until the next
// read, as is a content-store hit, copied into the loop's hit buffer:
// what outlives its handling is copied (a parked Interest and its hit,
// into its verify job; a Data's Content, into the content store).
func (f *Forwarder) readLoop(fs *faceState) {
	defer f.wg.Done()
	scratch := new(transport.Scratch)
	var hit core.Content
	for {
		pkt, err := fs.conn.ReceiveInto(scratch)
		if err != nil {
			f.removeFace(fs.id)
			return
		}
		switch {
		case pkt.Interest != nil:
			f.handleInterest(pkt.Interest, fs, &hit, pkt.DecodeDur)
		case pkt.Data != nil:
			f.handleData(pkt.Data, fs, pkt.DecodeDur)
		case pkt.Control != nil:
			f.handleControl(pkt.Control, fs.id)
		}
	}
}

// removeFace detaches a dead face: the face-table entry goes under the
// write lock, then the self-synchronised tables are cleaned without it —
// every FIB route through the face (so Interests stop black-holing into
// a dead upstream) and every PIT entry whose primary was forwarded to it
// (so client retransmissions re-forward instead of aggregating onto an
// unanswerable entry). Idempotent: concurrent removals of one face
// detach it once.
func (f *Forwarder) removeFace(id ndn.FaceID) {
	f.mu.Lock()
	fs, ok := f.faces[id]
	if ok {
		delete(f.faces, id)
	}
	f.mu.Unlock()
	if !ok {
		return
	}
	if n := f.fib.RemoveFace(id); n > 0 {
		f.m.routesDetached.Add(uint64(n))
		f.logf("face %d: detached %d routes", id, n)
	}
	if flushed := f.pit.DropByOutFace(id); len(flushed) > 0 {
		f.m.pitFlushed.Add(uint64(len(flushed)))
		f.logf("face %d: flushed %d pending interests", id, len(flushed))
	}
	if n := f.vp.flushWhere(func(j *verifyJob) bool { return j.from.id == id }, core.ErrOverload); n > 0 {
		f.logf("face %d: flushed %d parked verifications", id, n)
	}
	f.release(fs)
	f.ev.Emit(obs.EventFaceDown, int(id), faceAttr(fs.conn, fs.downstream), 0)
	f.logf("face %d closed", id)
	if fs.onDown != nil {
		go fs.onDown()
	}
}

// AddRoute installs a prefix route toward a face.
func (f *Forwarder) AddRoute(prefix names.Name, face ndn.FaceID) {
	f.fib.Insert(prefix, face)
}

// DialUpstream connects to an upstream node and returns its face. The
// address may carry a scheme ("udp://host:port"); bare addresses dial
// TCP.
func (f *Forwarder) DialUpstream(addr string) (ndn.FaceID, error) {
	face, err := transport.DialFace(addr, transport.UDPOptions{})
	if err != nil {
		return ndn.FaceNone, fmt.Errorf("forwarder: dial upstream %s: %w", addr, err)
	}
	return f.AddFace(face, false), nil
}

// ServeFaces accepts downstream faces from any FaceListener — a stream
// listener or a UDP endpoint, whose faces appear on the first datagram
// from each new remote — until the listener closes.
func (f *Forwarder) ServeFaces(l transport.FaceListener) error {
	for {
		face, err := l.Accept()
		if err != nil {
			select {
			case <-f.closed:
				return nil
			default:
				return err
			}
		}
		f.AddFace(face, true)
	}
}

// Close shuts the forwarder down and waits for its goroutines. The
// verify pool drains first — in-flight verifications deliver their
// verdicts and every still-parked Interest is flushed with an Overload
// NACK while its face can still carry it — then managed uplinks stop
// (their supervisors remove their own faces), then the remaining faces
// are closed.
func (f *Forwarder) Close() error {
	f.once.Do(func() { close(f.closed) })
	f.vp.shutdown()
	f.mu.Lock()
	ups := f.uplinks
	f.uplinks = nil
	f.mu.Unlock()
	for _, u := range ups {
		u.Close()
	}
	f.mu.Lock()
	for id, fs := range f.faces {
		f.release(fs)
		delete(f.faces, id)
	}
	f.mu.Unlock()
	f.wg.Wait()
	return nil
}

// Stats returns a snapshot of the forwarder's counters: the /metrics
// series themselves, NACKs summed over reasons and drops over causes.
func (f *Forwarder) Stats() Stats {
	return Stats{
		Interests:     f.m.interest.Value(),
		Data:          f.m.data.Value(),
		CSHits:        f.m.csHits.Value(),
		NACKs:         sumCounters(f.m.nacks),
		Drops:         sumCounters(f.m.drops),
		VerifySheds:   f.vp.Sheds(),
		VerifyFlushed: f.vp.Flushed(),
	}
}

// Tactic exposes the router state (Bloom filter, validator) for
// inspection.
func (f *Forwarder) Tactic() *enforce.Router { return f.tactic }

// CSNames returns the names currently held in the content store, in
// unspecified order. Consistent only on a quiescent forwarder; the
// conformance oracle uses it for end-state cache comparison.
func (f *Forwarder) CSNames() []string { return f.cs.Names() }

// errNoFace reports a send against a face that is no longer attached.
var errNoFace = errors.New("forwarder: face detached")

// send transmits a Data on a face. Failures are counted as drops.
func (f *Forwarder) send(face ndn.FaceID, d *ndn.Data) {
	switch err := f.sendPacket(face, nil, d); {
	case err == nil:
	case errors.Is(err, errNoFace):
		f.m.drop(node.DropNoFace)
	default:
		f.m.drop(node.DropSendErr)
	}
}

// sendPacket sends an Interest (i non-nil) or a Data on a face. A
// connection-level failure detaches the face, so the next packet does not
// hit the same dead peer; the caller accounts the drop. The packet is
// encoded here, with the concrete encoder, into a pooled buffer and
// handed to the face as a frame: passed through the Face interface it
// would escape, and every reply literal the pipeline builds would be a
// heap allocation.
func (f *Forwarder) sendPacket(face ndn.FaceID, i *ndn.Interest, d *ndn.Data) error {
	f.mu.RLock()
	fs, ok := f.faces[face]
	f.mu.RUnlock()
	if !ok {
		return errNoFace
	}
	buf := ndn.AcquireBuffer()
	defer ndn.ReleaseBuffer(buf)
	var frame []byte
	var err error
	if i != nil {
		frame, err = ndn.AppendInterest(*buf, i)
	} else {
		frame, err = ndn.AppendData(*buf, d)
	}
	if err == nil {
		*buf = frame[:0] // keep any growth for the pool
		err = fs.conn.SendFrame(frame)
	}
	if err != nil {
		f.logf("send on face %d: %v", face, err)
		if transport.IsFatal(err) {
			f.removeFace(face)
		}
	}
	return err
}

// arrival is one Interest on its way through the pipeline, with what this
// driver keeps beside it: the face to answer, the protocol time it arrived
// at (expiry and PIT lifetimes are judged against the arrival, not a
// dequeue), its span, the trace context to stamp on whatever is sent for
// it, and whether its stages are timed.
type arrival struct {
	i       *ndn.Interest
	from    *faceState
	now     time.Time
	sp      *obs.Span
	outTC   ndn.TraceContext
	sampled bool
}

// handleInterest runs one Interest through the node core (the real-time
// analogue of the simulator's RouterNode.HandleInterest) and acts on the
// step it returns. It holds no forwarder-wide lock: enforcement, CS, PIT
// and FIB synchronise themselves, so faces proceed in parallel and
// serialise only for each table operation, never across a packet's
// walk. No Interest's signature is verified here: a decision that needs
// one parks the Interest in the verify pool and the reader moves on, so
// the hop histogram and the pit_cs stage measure the reader's hot path
// only. (Aggregated PIT records are still verified inline, on the Data
// path.) A content-store hit is copied into hit, the reader's buffer.
func (f *Forwarder) handleInterest(i *ndn.Interest, from *faceState, hit *core.Content, decodeDur time.Duration) {
	now := time.Now()
	a := arrival{i: i, from: from, now: now}
	a.sp = f.cfg.Tracer.StartCtx(i.Trace, "interest", i.Name.String())
	a.outTC = a.sp.Onward(i.Trace)
	n := f.m.interest.Inc()
	defer func() { f.m.hop.Observe(time.Since(now).Seconds()) }()
	// 1-in-64 packets contribute pit_cs / encode_send stage timings
	// (bf_lookup and verify are timed inside their own layers); a packet
	// with a span is always timed so its trace shows the decomposition.
	a.sampled = a.sp != nil || n&stageSampleMask == 0
	if a.sp != nil && decodeDur > 0 {
		a.sp.EventDur("decode", decodeDur, "")
	}
	checks := node.Protocol3
	if i.Kind == ndn.KindContent && f.cfg.Role == RoleEdge && from.downstream {
		// The edge is its clients' first-hop entity: reset-then-stamp
		// the access path, then Protocol 2 applies.
		i.AccessPath = core.EmptyAccessPath.Accumulate(f.cfg.ID)
		checks |= node.Protocol2
	}
	var walk time.Time
	if a.sampled {
		walk = time.Now()
	}
	st := f.node.OnInterest(i, from.id, checks, hit, now)
	if st.Action != node.Verify || st.Pending.Op != enforce.OpEdgeInterest {
		observeStageSpan(f.m.stagePITCS, "pit_cs", walk, a.sp) // the call reached the tables
	}
	if a.sp != nil {
		narrate(a.sp, i, st)
	}
	f.act(a, st)
}

// narrate records on a span the enforcement a step went through: the F
// carried (a core hop sees the edge's collaboration flag on the wire) and
// which check decided — on F != 0 at a content router whether the
// probabilistic re-check fired, otherwise whether the validation cache
// vouched for the tag.
func narrate(sp *obs.Span, i *ndn.Interest, st node.Step) {
	if i.Flag != 0 {
		sp.Event("flag", "F="+strconv.FormatFloat(i.Flag, 'g', -1, 64))
	}
	switch {
	case st.Stage == enforce.StageNone:
	case st.Stage == enforce.StageContent && i.Flag != 0 && st.Action == node.Verify:
		sp.Event("flag_check", "recheck")
	case st.Stage == enforce.StageContent && i.Flag != 0:
		sp.Event("flag_check", "recheck_skipped")
	case st.BFHit:
		sp.Event("bf_lookup", "hit")
	default:
		sp.Event("bf_lookup", "miss")
	}
}

// act carries out the step the node core returned for an Interest, on the
// face reader or — resumed with a verdict — on a verify-pool worker.
func (f *Forwarder) act(a arrival, st node.Step) {
	i, sp := a.i, a.sp
	var sendStart time.Time
	if a.sampled {
		sendStart = time.Now()
	}
	switch st.Action {
	case node.Verify:
		f.vp.park(a, st.Pending)
	case node.Reply:
		f.reply(a, st.Reply, sendStart)
	case node.Register:
		f.origin.register(a)
	case node.Aggregate:
		// A fresh nonce for a pending name is a retransmission: re-send
		// upstream as well as aggregating, so an Interest lost on the uplink
		// is recovered instead of black-holing every requester until the
		// entry expires. The re-send asks the primary's question (its tag
		// and F), so every answer for the name answers one question and the
		// aggregate is judged at the Data, as in the simulator. While the
		// primary forward is still in flight the out-face is unset and there
		// is nothing to recover yet.
		if st.Face != ndn.FaceNone {
			if primary, ok := f.pit.Primary(i.Name); ok {
				i.Tag, i.Flag, i.Trace = primary.Tag, primary.Flag, a.outTC
				f.sendPacket(st.Face, i, nil) //nolint:errcheck // best-effort recovery
			}
		}
		sp.End(node.OutcomeAggregated, 0)
	case node.Forward:
		i.Trace = a.outTC
		err := f.sendPacket(st.Face, i, nil)
		if err == nil {
			observeStageSpan(f.m.stageEncodeSend, "encode_send", sendStart, sp)
			sp.End(node.OutcomeForwarded, 0)
			return
		}
		st.Cause = node.DropSendErr
		if errors.Is(err, errNoFace) {
			st.Cause = node.DropNoFace
		}
		fallthrough
	case node.Drop:
		// An Interest admitted to the PIT that never left — no route, or
		// the send failed — consumes its fresh entry again, so
		// retransmissions re-forward instead of aggregating onto a dead
		// entry for a full PIT lifetime. (A retransmission landing in the
		// abort window aggregates onto the doomed entry and is recovered by
		// its own retransmission, like a lost upstream Interest.)
		if st.Cause != node.DropDupNonce {
			f.pit.Consume(i.Name)
		}
		if st.Cause == node.DropNoRoute && f.origin == nil {
			f.logf("no route for %s", i.Name)
		}
		f.m.drop(st.Cause)
		sp.End(node.OutcomeDrop+st.Cause, 0)
	}
}

// reply answers an Interest on its arrival face: the content (alongside a
// NACK when the tag failed at a router — the paper's §5.B trade-off), the
// content alone, or a bare NACK. It counts the NACK or the hit and ends
// the span.
func (f *Forwarder) reply(a arrival, ans node.Answer, sendStart time.Time) {
	outcome := node.OutcomeCSHit
	if ans.Nack {
		f.m.nack(ans.Reason)
		if a.sp != nil { // joining allocates; only a span reads it
			outcome = node.OutcomeNack + core.ReasonLabel(ans.Reason)
		}
	} else {
		f.m.csHits.Inc()
	}
	f.send(a.from.id, &ndn.Data{
		Name: a.i.Name, Content: ans.Content, Tag: a.i.Tag,
		Flag: ans.Flag, Nack: ans.Nack, NackReason: ans.Reason,
		Trace: a.outTC,
	})
	observeStageSpan(f.m.stageEncodeSend, "encode_send", sendStart, a.sp)
	a.sp.End(outcome, 0)
}

// handleData runs the Data pipeline, lock-free like handleInterest: the
// node core admits the Data (or reports it unsolicited) and decides each
// requester; this driver sends.
func (f *Forwarder) handleData(d *ndn.Data, from *faceState, decodeDur time.Duration) {
	now := time.Now()
	inTC := d.Trace
	sp := f.cfg.Tracer.StartCtx(inTC, "data", d.Name.String())
	outTC := sp.Onward(inTC)
	f.m.data.Inc()
	if sp != nil && decodeDur > 0 {
		sp.EventDur("decode", decodeDur, "")
	}
	// The requesters are copied out (one record, nearly always; the array
	// stays on this stack) and the PIT keeps the entry for its next
	// admission.
	var scratch [4]ndn.PITRecord
	records, cause := f.node.OnData(d, from.id, true, scratch[:0])
	if cause != "" {
		f.m.drop(cause)
		sp.End(node.OutcomeDrop+cause, 0)
		return
	}
	if d.Registration != nil {
		// A registration response goes to every requester as it came.
		d.Trace = outTC
		for _, rec := range records {
			f.send(rec.InFace, d)
		}
		sp.End("registration", 0)
		return
	}
	for idx, rec := range records {
		dl := f.node.OnRecord(d, rec, idx == 0, now)
		if dl.Minted {
			f.m.nack(dl.Answer.Reason)
			sp.Event("nack_aggregate", core.ReasonLabel(dl.Answer.Reason))
		}
		if dl.Cause != "" {
			// Tell the client so it can fail fast rather than time out.
			f.m.drop(dl.Cause)
			sp.Event("edge_drop", core.ReasonLabel(dl.Answer.Reason))
		}
		f.send(rec.InFace, &ndn.Data{
			Name: d.Name, Content: dl.Answer.Content, Tag: rec.Tag,
			Flag: dl.Answer.Flag, Nack: dl.Answer.Nack, NackReason: dl.Answer.Reason,
			Trace: outTC,
		})
	}
	if d.Nack {
		sp.End("relayed_nack:"+core.ReasonLabel(d.NackReason), 0)
	} else {
		sp.End(node.OutcomeDelivered, 0)
	}
}
