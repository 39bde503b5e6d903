package network

import (
	"errors"
	"math/rand"
	"time"

	"github.com/tactic-icn/tactic/internal/bloom"
	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/enforce"
	"github.com/tactic-icn/tactic/internal/metrics"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/topology"
)

// RouterConfig parameterises a TACTIC router node.
type RouterConfig struct {
	// BFCapacity is the Bloom filter's design capacity (items indexed);
	// the paper sweeps 500-10000.
	BFCapacity int
	// BFMaxFPP is the saturation threshold triggering auto-reset; the
	// paper's default is 1e-4.
	BFMaxFPP float64
	// CSCapacity is the content-store size in chunks; 0 disables caching
	// (edge routers in the paper's model do not cache).
	CSCapacity int
	// PITLifetime bounds pending-Interest entries.
	PITLifetime time.Duration
	// BFDesignFPP, when non-zero, sizes the Bloom filter for BFCapacity
	// items at this design FPP while keeping BFMaxFPP as the saturation
	// threshold (paper-fidelity mode; see bloom.NewPaperWithDesign).
	BFDesignFPP float64
	// DisableEnforcement turns off all router-side tag processing:
	// every request is served (baselines OpenNDN / ClientSideAC).
	DisableEnforcement bool
	// NoPrivateCache prevents caching and cache-serving of non-Public
	// content, forcing private requests to the origin (baseline
	// ProviderAuthAC).
	NoPrivateCache bool
	// DropContentOnNACK makes a content router answer an invalid tag
	// with a pure NACK instead of the paper's content-plus-NACK
	// (ablation "DropOnNACK"; starves valid aggregated requests
	// downstream).
	DropContentOnNACK bool
	// Traitor, when non-nil, receives every access-path mismatch the
	// edge observes (the paper's future-work traitor-tracing feature;
	// typically one detector shared by all edge routers of an ISP).
	Traitor *core.TraitorDetector
	// VerifyBudget, when positive, mirrors the live forwarder's per-face
	// verification admission control: an edge face may have at most this
	// many signature verifications outstanding (completion instant still
	// in the virtual future); requests beyond the budget are shed with an
	// Overload NACK. Zero keeps the pre-admission behaviour, so existing
	// experiment reproductions are untouched. Tactic.DisableAdmission
	// forces it off regardless (the "forgot to cap" ablation).
	VerifyBudget int
	// Colluding models threat (f) of the paper's threat model: "an
	// unreliable router that delivers a content to unauthorized users"
	// (§3.C) — the compromised-ISP-router collusion §6 concedes breaks
	// TACTIC ("a malicious ISP router can collude with a revoked client
	// to deliver him the encrypted content"). A colluding edge skips
	// Protocol 2 entirely and delivers NACKed content anyway. The
	// experiment suite quantifies the blast radius (only users behind
	// the compromised edge benefit).
	Colluding bool
	// Tactic selects protocol features (ablations).
	Tactic core.Config
}

// RouterNode is a TACTIC router in the simulated network: the NDN
// forwarding pipeline (CS -> PIT -> FIB) with the paper's Protocols 1-4
// spliced in. Edge routers additionally run Protocol 2 on their
// client-side (access-point) faces.
type RouterNode struct {
	net    *Network
	index  int
	isEdge bool
	tactic *enforce.Router
	fib    *ndn.FIB
	pit    *ndn.PIT
	cs     *ndn.CS
	cfg    RouterConfig
	rng    *rand.Rand

	interests uint64
	dataSeen  uint64
	nacksSent uint64
	drops     map[string]uint64
	// verifyPending tracks, per arrival face, the virtual completion
	// instants of outstanding signature verifications — the sim mirror of
	// the live verify pool's parked+in-flight occupancy. Entries at or
	// before "now" have retired and are pruned on the next admission
	// check. Only populated when the admission budget is active.
	verifyPending map[ndn.FaceID][]time.Time
	opCount       uint64
	// cpuBusyUntil serialises computational delays: a router is a
	// single processing pipeline, so a burst of signature verifications
	// (e.g. after a Bloom-filter reset) delays subsequent packets — the
	// mechanism behind the paper's Fig. 5 latency spikes.
	cpuBusyUntil time.Time
}

// pitGCStride amortises lazy PIT expiry.
const pitGCStride = 2048

// NewRouterNode creates a router for graph node index. isEdge selects
// the Protocol 2 role; verifier is the shared trust registry.
func NewRouterNode(net *Network, index int, isEdge bool, verifier pki.Verifier, rng *rand.Rand, cfg RouterConfig) (*RouterNode, error) {
	bf, err := newRouterFilter(cfg)
	if err != nil {
		return nil, err
	}
	id := net.Graph.Nodes[index].ID
	r := &RouterNode{
		net:    net,
		index:  index,
		isEdge: isEdge,
		tactic: enforce.NewRouter(id, bf, core.NewTagValidator(verifier), rng, cfg.Tactic),
		fib:    ndn.NewFIB(),
		pit:    ndn.NewPIT(),
		cs:     ndn.NewCS(cfg.CSCapacity),
		cfg:    cfg,
		rng:    rng,
		drops:  make(map[string]uint64),

		verifyPending: make(map[ndn.FaceID][]time.Time),
	}
	return r, nil
}

var _ Node = (*RouterNode)(nil)

// newRouterFilter builds a router's Bloom filter per the configured
// sizing mode.
func newRouterFilter(cfg RouterConfig) (*bloom.Filter, error) {
	if cfg.BFDesignFPP > 0 {
		return bloom.NewPaperWithDesign(cfg.BFCapacity, cfg.BFDesignFPP, cfg.BFMaxFPP)
	}
	return bloom.NewPaper(cfg.BFCapacity, cfg.BFMaxFPP)
}

// FIB exposes the router's FIB for route installation.
func (r *RouterNode) FIB() *ndn.FIB { return r.fib }

// Index returns the router's graph index.
func (r *RouterNode) Index() int { return r.index }

// Tactic exposes the TACTIC state for tests and metrics.
func (r *RouterNode) Tactic() *enforce.Router { return r.tactic }

// IsEdge reports the router's role.
func (r *RouterNode) IsEdge() bool { return r.isEdge }

// CSNames returns the names currently held in the content store, in
// unspecified order — the conformance oracle's end-state cache view.
func (r *RouterNode) CSNames() []string { return r.cs.Names() }

// drop records a dropped packet by reason.
func (r *RouterNode) drop(reason string) { r.drops[reason]++ }

// charge runs fn, samples the computational delay for the Bloom-filter
// and signature operations it performed (decomposed onto sp), and
// serialises that work on the router's CPU. The returned duration is the
// total wait from now until this packet's processing completes
// (queueing behind earlier bursts included).
func (r *RouterNode) charge(sp *SimSpan, fn func()) time.Duration {
	return r.cpuWait(sp, r.net.chargeOps(r.tactic, r.rng, sp, fn))
}

// id returns the router's topology node identity.
func (r *RouterNode) id() string { return r.net.Graph.Nodes[r.index].ID }

// role names the router's role for span records.
func (r *RouterNode) role() string {
	if r.isEdge {
		return "edge"
	}
	return "core"
}

// cpuWait books work on the router CPU and returns the delay from now
// until it finishes, recording any time spent queued behind earlier work
// on sp.
func (r *RouterNode) cpuWait(sp *SimSpan, work time.Duration) time.Duration {
	now := r.net.Engine.Now()
	start := now
	if r.cpuBusyUntil.After(start) {
		start = r.cpuBusyUntil
	}
	end := start.Add(work)
	r.cpuBusyUntil = end
	if q := start.Sub(now); q > 0 {
		sp.Event("queue", q, "")
	}
	return end.Sub(now)
}

// verifyBudget returns the per-face verify admission budget; 0 means
// admission is off (either unconfigured or the DisableAdmission
// ablation).
func (r *RouterNode) verifyBudget() int {
	if r.cfg.Tactic.DisableAdmission {
		return 0
	}
	return r.cfg.VerifyBudget
}

// admitVerify prunes the face's retired verifications and reports
// whether one more fits under the budget. Always true when admission is
// off.
func (r *RouterNode) admitVerify(from ndn.FaceID, now time.Time) bool {
	budget := r.verifyBudget()
	if budget <= 0 {
		return true
	}
	kept := r.verifyPending[from][:0]
	for _, done := range r.verifyPending[from] {
		if done.After(now) {
			kept = append(kept, done)
		}
	}
	r.verifyPending[from] = kept
	return len(kept) < budget
}

// noteVerify records an admitted verification's virtual completion
// instant against its arrival face.
func (r *RouterNode) noteVerify(from ndn.FaceID, done time.Time) {
	if r.verifyBudget() <= 0 {
		return
	}
	r.verifyPending[from] = append(r.verifyPending[from], done)
}

// maybeGCPIT lazily expires PIT entries every pitGCStride operations.
func (r *RouterNode) maybeGCPIT() {
	r.opCount++
	if r.opCount%pitGCStride == 0 {
		r.pit.ExpireBefore(r.net.Engine.Now())
	}
}

// HandleInterest implements the router's Interest pipeline.
func (r *RouterNode) HandleInterest(i *ndn.Interest, from ndn.FaceID) {
	r.interests++
	r.maybeGCPIT()
	now := r.net.Engine.Now()
	inTC := i.Trace
	sp := r.net.StartTraceSpan(inTC, r.id(), r.role(), "interest", i.Name.String())
	var proc time.Duration

	if i.Kind == ndn.KindContent && r.isEdge && !r.cfg.DisableEnforcement && !r.cfg.Colluding &&
		r.net.PeerKind(r.index, from) == topology.KindAccessPoint {
		// Protocol 2 (On Interest) at the edge for client-side arrivals,
		// split fast/slow exactly like the live forwarder: the BF-backed
		// fast decision runs first, and only a miss that needs a
		// signature check passes through per-face admission. The split is
		// RNG-neutral — chargeOps draws per operation in class order
		// (lookups, inserts, verifies), which is the same sequence the
		// combined charge produced.
		var dec enforce.Verdict
		proc += r.charge(sp, func() {
			dec = r.tactic.EdgeOnInterestFast(i.Tag, i.AccessPath, i.Name, now)
		})
		if dec.NeedsVerify() {
			if !r.admitVerify(from, now) {
				dec = enforce.Shed(enforce.StageEdgeInterest)
			} else {
				proc += r.charge(sp, func() {
					dec = r.tactic.VerifyMiss(enforce.InterestInput{
						Op: enforce.OpEdgeInterest, Tag: i.Tag, RequestAP: i.AccessPath, Name: i.Name, Now: now,
					})
				})
				r.noteVerify(from, now.Add(proc))
			}
		}
		if dec.Denied() {
			r.drop(core.ReasonLabel(dec.Reason))
			r.nacksSent++
			if r.cfg.Traitor != nil && errors.Is(dec.Reason, core.ErrAccessPathMismatch) {
				r.cfg.Traitor.Observe(i.Tag, i.AccessPath)
			}
			sp.Event("precheck", 0, core.ReasonLabel(dec.Reason))
			nack := &ndn.Data{Name: i.Name, Tag: i.Tag, Nack: true, NackReason: dec.Reason,
				Trace: NextHopTrace(inTC, sp)}
			r.net.SendData(r.index, from, nack, proc)
			sp.End("nack", proc)
			return
		}
		i.Flag = dec.Flag
	}

	if i.Kind == ndn.KindContent {
		if content, ok := r.cs.Lookup(i.Name); ok && r.servableFromCache(content) {
			if r.cfg.DisableEnforcement {
				d := &ndn.Data{Name: i.Name, Content: content, Tag: i.Tag, Flag: i.Flag,
					Trace: NextHopTrace(inTC, sp)}
				r.net.SendData(r.index, from, d, proc)
				sp.End("cs_hit", proc)
				return
			}
			// Content-router role: Protocol 3.
			var dec enforce.Verdict
			proc += r.charge(sp, func() {
				dec = r.tactic.ContentOnInterest(i.Tag, content.Meta, i.Flag, now)
			})
			outcome := "cs_hit"
			if dec.Denied() {
				r.nacksSent++
				outcome = "cs_hit_nack"
			}
			d := &ndn.Data{
				Name:       i.Name,
				Content:    content,
				Tag:        i.Tag,
				Flag:       dec.Flag,
				Nack:       dec.Denied(),
				NackReason: dec.Reason,
				Trace:      NextHopTrace(inTC, sp),
			}
			if d.Nack && r.cfg.DropContentOnNACK {
				d.Content = nil
			}
			r.net.SendData(r.index, from, d, proc)
			sp.End(outcome, proc)
			return
		}
	}

	// PIT: duplicate suppression, then aggregate-or-create.
	switch outcome, _ := r.pit.Admit(i.Name, ndn.PITRecord{
		Tag: i.Tag, Flag: i.Flag, InFace: from, Nonce: i.Nonce, Arrived: now,
	}, now, now.Add(r.cfg.PITLifetime)); outcome {
	case ndn.PITDuplicate:
		r.drop("duplicate-nonce")
		sp.End("drop_duplicate_nonce", proc)
		return
	case ndn.PITAggregated:
		sp.End("pit_aggregated", proc)
		return
	}

	face, ok := r.fib.Lookup(i.Name)
	if !ok {
		r.drop("no-route")
		sp.End("drop_no_route", proc)
		return
	}
	i.Trace = NextHopTrace(inTC, sp)
	r.net.SendInterest(r.index, face, i, proc)
	sp.End("forwarded", proc)
}

// HandleData implements the router's Data pipeline.
func (r *RouterNode) HandleData(d *ndn.Data, from ndn.FaceID) {
	r.dataSeen++
	now := r.net.Engine.Now()

	if d.Registration != nil {
		r.handleRegistrationData(d)
		return
	}

	inTC := d.Trace
	sp := r.net.StartTraceSpan(inTC, r.id(), r.role(), "data", d.Name.String())

	if d.Content != nil && r.servableFromCache(d.Content) {
		// Pervasive caching: every router on the reverse path caches
		// (capacity 0 disables, as configured for edge routers).
		r.cs.Insert(d.Content)
	}

	entry, ok := r.pit.Consume(d.Name)
	if !ok {
		r.drop("unsolicited-data")
		sp.End("drop_unsolicited", 0)
		return
	}
	outTC := NextHopTrace(inTC, sp)

	if r.cfg.DisableEnforcement {
		for _, rec := range entry.Records {
			out := &ndn.Data{Name: d.Name, Content: d.Content, Tag: rec.Tag, Flag: d.Flag, Trace: outTC}
			r.net.SendData(r.index, rec.InFace, out, 0)
		}
		sp.End("delivered", 0)
		return
	}
	// The hop span narrates the traced (primary) request's path and ends
	// with it; aggregated deliveries still carry the onward context so
	// their consumers see a complete hop count.
	outcome, proc := r.deliverRecord(d, entry.Records[0], true, now, outTC, sp)
	sp.End(outcome, proc)
	for _, rec := range entry.Records[1:] {
		r.deliverRecord(d, rec, false, now, outTC, nil)
	}
}

// servableFromCache reports whether this router may cache/serve the
// content (ProviderAuthAC forbids caching private content).
func (r *RouterNode) servableFromCache(c *core.Content) bool {
	if !r.cfg.NoPrivateCache {
		return true
	}
	return c.Meta.Level == core.Public
}

// deliverRecord answers one PIT record from the arriving Data as
// enforce.OnDataRecord decides (Protocol 2 On-Content at the edge,
// Protocol 4 lines 6-26 elsewhere), stamping outTC on whatever it sends.
// It returns the outcome and charged processing time for the caller's
// hop span (sp decomposes the charge; nil for aggregated records, whose
// work is not part of the traced request). Router CPU is charged only
// when the decision consulted an enforcement checkpoint.
func (r *RouterNode) deliverRecord(d *ndn.Data, rec ndn.PITRecord, primary bool, now time.Time, outTC ndn.TraceContext, sp *SimSpan) (string, time.Duration) {
	if r.isEdge && r.cfg.Colluding && rec.Tag != nil && d.Content != nil {
		// Threat (f): deliver regardless of the upstream verdict.
		out := &ndn.Data{Name: d.Name, Content: d.Content, Tag: rec.Tag, Flag: d.Flag, Trace: outTC}
		r.net.SendData(r.index, rec.InFace, out, 0)
		return "delivered", 0
	}
	var v enforce.RecordVerdict
	work := r.net.chargeOps(r.tactic, r.rng, sp, func() {
		v = r.tactic.OnDataRecord(r.isEdge, primary, rec.Tag, rec.Flag,
			enforce.ArrivedData{Content: d.Content, Flag: d.Flag, Nack: d.Nack, NackReason: d.NackReason}, now)
	})
	var proc time.Duration
	if v.Stage != enforce.StageNone {
		proc = r.cpuWait(sp, work)
	}
	if v.Minted {
		r.nacksSent++
	}
	if v.Deliver == enforce.DeliverNothing {
		if rec.Tag == nil {
			r.drop("tagless-private")
			return "drop_tagless_private", proc
		}
		r.drop("edge-nack-drop")
		return "drop_edge_nack", proc
	}
	out := &ndn.Data{
		Name: d.Name, Content: d.Content, Tag: rec.Tag,
		Flag: v.Flag, Nack: v.Deliver.Nack(), NackReason: v.Reason,
		Trace: outTC,
	}
	r.net.SendData(r.index, rec.InFace, out, proc)
	if r.isEdge {
		return "delivered", proc
	}
	return "forwarded", proc
}

// handleRegistrationData forwards a registration response along the
// reverse path, inserting the fresh tag into the edge Bloom filter
// (Protocol 2 lines 11-12).
func (r *RouterNode) handleRegistrationData(d *ndn.Data) {
	var proc time.Duration
	if r.isEdge && d.Registration.Tag != nil {
		proc = r.charge(nil, func() { r.tactic.EdgeOnTagResponse(d.Registration.Tag) })
	}
	entry, ok := r.pit.Consume(d.Name)
	if !ok {
		r.drop("unsolicited-registration")
		return
	}
	for _, rec := range entry.Records {
		r.net.SendData(r.index, rec.InFace, d, proc)
	}
}

// Stats snapshots the router's counters.
type RouterNodeStats struct {
	// Ops are the Fig. 7 / Fig. 8 / Table V operation counters.
	Ops metrics.RouterOps
	// Interests and Data count packets processed.
	Interests, Data uint64
	// NACKsSent counts invalidity signals emitted.
	NACKsSent uint64
	// Drops tallies dropped packets by reason.
	Drops map[string]uint64
	// CSHits/CSMisses are content-store statistics.
	CSHits, CSMisses uint64
	// PITCreated/PITAggregated/PITExpired are PIT statistics.
	PITCreated, PITAggregated, PITExpired uint64
}

// Stats returns a copy of the router's counters.
func (r *RouterNode) Stats() RouterNodeStats {
	bf := r.tactic.Bloom().Stats()
	hits, misses, _ := r.cs.Stats()
	created, aggregated, expired := r.pit.Stats()
	drops := make(map[string]uint64, len(r.drops))
	for k, v := range r.drops {
		drops[k] = v
	}
	return RouterNodeStats{
		Ops: metrics.RouterOps{
			Lookups:         bf.Lookups,
			Insertions:      bf.Insertions,
			Verifications:   r.tactic.Validator().Verifications(),
			Resets:          bf.Resets,
			ResetThresholds: r.tactic.Bloom().ResetThresholds(),
		},
		Interests:  r.interests,
		Data:       r.dataSeen,
		NACKsSent:  r.nacksSent,
		Drops:      drops,
		CSHits:     hits,
		CSMisses:   misses,
		PITCreated: created, PITAggregated: aggregated, PITExpired: expired,
	}
}
