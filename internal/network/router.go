package network

import (
	"errors"
	"math"
	"math/rand"
	"time"

	"github.com/tactic-icn/tactic/internal/bloom"
	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/enforce"
	"github.com/tactic-icn/tactic/internal/metrics"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/node"
	"github.com/tactic-icn/tactic/internal/obs"
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
	// VerifyBudget, when positive, caps the signature verifications
	// outstanding per arrival face (completion instant still in the
	// virtual future) through the same queue as the live forwarder's
	// verify pool (node.VerifyQueue); requests beyond the budget are shed
	// with an Overload NACK. Zero admits without bound, so existing
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

// RouterNode is a TACTIC router in the simulated network: the node core
// (the NDN forwarding pipeline CS -> PIT -> FIB with the paper's
// Protocols 1-4 spliced in) driven by the event engine. Edge routers
// additionally run Protocol 2 on their client-side (access-point) faces;
// a provider's origin is a router in the origin role (NewOriginNode).
type RouterNode struct {
	net    *Network
	index  int
	role   node.Role
	tactic *enforce.Router
	// provider issues the origin's tags; nil at any other role.
	provider *core.Provider
	// The live plane's tables (their locks are uncontended: the engine is
	// single-threaded) and the node core this type drives in virtual time.
	fib  *ndn.FIB
	pit  *ndn.PIT
	cs   *ndn.CS
	core *node.Core
	// vq admits every verification the core asks for (see VerifyBudget).
	vq     *node.VerifyQueue[*ndn.Interest]
	cfg    RouterConfig
	rng    *rand.Rand
	tracer *obs.Tracer

	interests           uint64
	dataSeen            uint64
	nacksSent           uint64
	registrations       uint64
	registrationsFailed uint64
	drops               map[string]uint64
	// cpuBusyUntil serialises computational delays: a router is a
	// single processing pipeline, so a burst of signature verifications
	// (e.g. after a Bloom-filter reset) delays subsequent packets — the
	// mechanism behind the paper's Fig. 5 latency spikes. The origin's is
	// not (cpuWait).
	cpuBusyUntil time.Time
}

// pitGCStride amortises lazy PIT expiry: once every so many Interests.
const pitGCStride = 2048

// NewRouterNode creates a router for graph node index. isEdge selects
// the Protocol 2 role; verifier is the shared trust registry.
func NewRouterNode(net *Network, index int, isEdge bool, verifier pki.Verifier, rng *rand.Rand, cfg RouterConfig) (*RouterNode, error) {
	role := node.RoleCore
	if isEdge {
		role = node.RoleEdge
	}
	return newRouterNode(net, index, role, nil, verifier, rng, cfg)
}

// NewOriginNode creates provider's origin at graph node index: a router
// in the origin role whose unbounded content store is the published
// catalogue (AddContent) and which answers registration Interests with
// fresh tags (§4.A). DropContentOnNACK, an ablation of relaying content
// routers, does not apply to it.
func NewOriginNode(net *Network, index int, provider *core.Provider, verifier pki.Verifier, rng *rand.Rand, cfg RouterConfig) (*RouterNode, error) {
	cfg.CSCapacity, cfg.DropContentOnNACK = math.MaxInt, false
	return newRouterNode(net, index, node.RoleOrigin, provider, verifier, rng, cfg)
}

// newRouterNode builds a router in role; provider is the origin's, nil
// at an edge or core.
func newRouterNode(net *Network, index int, role node.Role, provider *core.Provider, verifier pki.Verifier, rng *rand.Rand, cfg RouterConfig) (*RouterNode, error) {
	design := cfg.BFMaxFPP
	if cfg.BFDesignFPP > 0 {
		design = cfg.BFDesignFPP
	}
	bf, err := bloom.NewPaperWithDesign(cfg.BFCapacity, design, cfg.BFMaxFPP)
	if err != nil {
		return nil, err
	}
	id := net.Graph.Nodes[index].ID
	r := &RouterNode{
		net:      net,
		index:    index,
		role:     role,
		tactic:   enforce.NewRouter(id, bf, core.NewTagValidator(verifier), rng, cfg.Tactic),
		provider: provider,
		fib:      ndn.NewFIB(),
		pit:      ndn.NewPIT(),
		cs:       ndn.NewCS(cfg.CSCapacity),
		vq:       node.NewVerifyQueue[*ndn.Interest](cfg.VerifyBudget, cfg.Tactic),
		cfg:      cfg,
		rng:      rng,
		tracer:   net.Tracer(id, role.String()),
		drops:    make(map[string]uint64),
	}
	r.core = node.New(r.tactic, r.fib, r.pit, r.cs, role, cfg.PITLifetime)
	return r, nil
}

var _ Node = (*RouterNode)(nil)

// FIB exposes the router's FIB for route installation.
func (r *RouterNode) FIB() *ndn.FIB { return r.fib }

// Index returns the router's graph index.
func (r *RouterNode) Index() int { return r.index }

// Tactic exposes the TACTIC state for tests and metrics.
func (r *RouterNode) Tactic() *enforce.Router { return r.tactic }

// IsEdge reports the router's role.
func (r *RouterNode) IsEdge() bool { return r.role == node.RoleEdge }

// CSNames returns the names currently held in the content store, in
// unspecified order — the conformance oracle's end-state cache view.
func (r *RouterNode) CSNames() []string { return r.cs.Names() }

// Provider exposes an origin's provider (nil at any other role).
func (r *RouterNode) Provider() *core.Provider { return r.provider }

// AddContent installs a published chunk into an origin's catalogue.
func (r *RouterNode) AddContent(c *core.Content) { r.cs.Insert(c) }

// RegistrationName returns the name clients use to register at an
// origin. Registration Interests carry a unique suffix per request so
// they are never aggregated or cached.
func (r *RouterNode) RegistrationName() names.Name {
	return r.provider.Prefix().MustAppend("register")
}

// drop records a dropped packet by reason.
func (r *RouterNode) drop(reason string) { r.drops[reason]++ }

// id returns the router's topology node identity.
func (r *RouterNode) id() string { return r.net.Graph.Nodes[r.index].ID }

// cpuWait books work on the router CPU and returns the delay from now
// until it finishes, recording any time spent queued behind earlier work
// on sp. The origin's CPU is not serialised: work delays only the reply
// it is for.
func (r *RouterNode) cpuWait(sp *obs.Span, work time.Duration) time.Duration {
	if r.role == node.RoleOrigin {
		return work
	}
	now := r.net.Engine.Now()
	start := now
	if r.cpuBusyUntil.After(start) {
		start = r.cpuBusyUntil
	}
	end := start.Add(work)
	r.cpuBusyUntil = end
	if q := start.Sub(now); q > 0 {
		sp.EventDur("queue", q, "")
	}
	return end.Sub(now)
}

// HandleInterest runs one Interest through the node core in virtual time
// and acts on the step it returns.
func (r *RouterNode) HandleInterest(i *ndn.Interest, from ndn.FaceID) {
	r.interests++
	now := r.net.Engine.Now()
	if r.interests%pitGCStride == 0 {
		r.pit.ExpireBefore(now) // lazy expiry: no background work in the event engine
	}
	inTC := i.Trace
	sp := r.tracer.StartCtx(inTC, "interest", i.Name.String())

	// None at a baseline router; Protocol 2 only on an honest edge's
	// client-side (access-point) faces.
	var checks node.Checks
	if !r.cfg.DisableEnforcement {
		checks = node.Protocol3
		if r.IsEdge() && !r.cfg.Colluding && r.net.PeerKind(r.index, from) == topology.KindAccessPoint {
			checks |= node.Protocol2
		}
	}
	// Each core call's Bloom-filter and signature operations are sampled
	// (chargeOps) and booked on the router CPU once a checkpoint was
	// consulted; a content decision awaiting its verification is booked
	// together with it, as one job. Verification is admitted through the
	// live forwarder's queue and completes inline (no follower can join);
	// the face's charge is released at the virtual completion instant, by
	// an engine event only when a budget can refuse it meanwhile. A hit is
	// a fresh copy of the stored chunk (a nil destination): it travels on
	// as an event after this handler returns.
	var st node.Step
	var proc, work time.Duration
	call := func(fn func()) {
		work += r.net.chargeOps(r.tactic, r.rng, sp, fn)
		if st.Stage != enforce.StageNone && (st.Action != node.Verify || st.Pending.Op != enforce.OpContent) {
			proc += r.cpuWait(sp, work)
			work = 0
		}
	}
	call(func() { st = r.core.OnInterest(i, from, checks, nil, now) })
	for st.Action == node.Verify {
		p := st.Pending
		if r.vq.Admit(i, from, i.Tag.Digest()) == node.Shed {
			st = r.core.ResumeInterest(i, from, p, enforce.Shed(st.Stage), nil, now)
			break
		}
		r.vq.Next() // i: nothing stays queued between handlers
		call(func() {
			dec := r.tactic.VerifyMiss(p.Input(i, now))
			r.vq.Close(i, dec.Verified, nil) // before the pipeline resumes, as live
			st = r.core.ResumeInterest(i, from, p, dec, nil, now)
		})
		if r.vq.Budget() > 0 && proc > 0 {
			r.net.Engine.Schedule(proc, func() { r.vq.Release(from) })
		} else {
			r.vq.Release(from)
		}
	}

	switch st.Action {
	case node.Reply:
		ans, outcome := st.Reply, node.OutcomeCSHit
		switch {
		case st.Stage == enforce.StageEdgeInterest: // Protocol 2 refused
			label := core.ReasonLabel(ans.Reason)
			r.drop(label)
			r.nacksSent++
			if r.cfg.Traitor != nil && errors.Is(ans.Reason, core.ErrAccessPathMismatch) {
				r.cfg.Traitor.Observe(i.Tag, i.AccessPath)
			}
			sp.Event("precheck", label)
			outcome = node.OutcomeNack + label
		case ans.Nack:
			r.nacksSent++
			outcome = node.OutcomeNack + core.ReasonLabel(ans.Reason)
			if r.cfg.DropContentOnNACK {
				ans.Content = nil
			}
		}
		r.net.SendData(r.index, from, &ndn.Data{Name: i.Name, Content: ans.Content, Tag: i.Tag,
			Flag: ans.Flag, Nack: ans.Nack, NackReason: ans.Reason, Trace: sp.Onward(inTC)}, proc)
		sp.End(outcome, proc)
	case node.Forward:
		i.Trace = sp.Onward(inTC)
		r.net.SendInterest(r.index, st.Face, i, proc)
		sp.End(node.OutcomeForwarded, proc)
	case node.Register:
		r.handleRegistration(i, from, now)
	case node.Aggregate:
		// Sim links lose only what a scenario tells them to: no re-send.
		sp.End(node.OutcomeAggregated, proc)
	case node.Drop:
		// A routeless entry stays until it expires: sim FIBs are installed
		// once.
		r.drop(st.Cause)
		sp.End(node.OutcomeDrop+st.Cause, proc)
	}
}

// handleRegistration processes a tag request at an origin: verify
// credentials and return a fresh tag, or drop ("provides her a fresh tag
// if she is authorized or drops the request otherwise", §4.A).
func (r *RouterNode) handleRegistration(i *ndn.Interest, from ndn.FaceID, now time.Time) {
	if i.Registration == nil {
		r.registrationsFailed++
		return
	}
	// The registration request's access path is whatever accumulated
	// between the client and its edge router; the provider copies it
	// into the tag.
	resp, err := r.provider.Register(*i.Registration, now)
	if err != nil {
		r.registrationsFailed++
		return
	}
	r.registrations++
	r.net.SendData(r.index, from, &ndn.Data{Name: i.Name, Registration: resp}, 0)
}

// HandleData runs an arriving Data through the node core: admitted (or
// dropped unsolicited) as one step, then decided per requester.
func (r *RouterNode) HandleData(d *ndn.Data, from ndn.FaceID) {
	r.dataSeen++
	now := r.net.Engine.Now()
	// Pervasive caching (capacity 0 disables, as configured for edges),
	// except that ProviderAuthAC keeps private content out of caches.
	cache := !r.cfg.NoPrivateCache || (d.Content != nil && d.Content.Meta.Level == core.Public)
	var recs []ndn.PITRecord
	var cause string
	// Only an edge's insertion of a registration response's tag draws on
	// the delay model here.
	work := r.net.chargeOps(r.tactic, r.rng, nil, func() { recs, cause = r.core.OnData(d, from, cache, nil) })
	// A registration response carries no trace context: its relay is not
	// narrated.
	inTC := d.Trace
	sp := r.tracer.StartCtx(inTC, "data", d.Name.String())
	if cause != "" {
		r.drop(cause)
		sp.End(node.OutcomeDrop+cause, 0)
		return
	}
	if d.Registration != nil {
		var proc time.Duration
		if r.IsEdge() && d.Registration.Tag != nil {
			proc = r.cpuWait(nil, work)
		}
		for _, rec := range recs {
			r.net.SendData(r.index, rec.InFace, d, proc)
		}
		return
	}
	outTC := sp.Onward(inTC)
	// The hop span narrates the traced (primary) request's path and ends
	// with it; aggregated deliveries still carry the onward context so
	// their consumers see a complete hop count.
	outcome, proc := r.deliverRecord(d, recs[0], true, now, outTC, sp)
	sp.End(outcome, proc)
	for _, rec := range recs[1:] {
		r.deliverRecord(d, rec, false, now, outTC, nil)
	}
}

// deliverRecord answers one PIT record from the arriving Data as the node
// core decides, stamping outTC on whatever it sends. It returns the
// outcome and charged processing time for the caller's hop span (sp
// decomposes the charge; nil for aggregated records, whose work is not
// part of the traced request). Router CPU is charged only when the
// decision consulted an enforcement checkpoint.
func (r *RouterNode) deliverRecord(d *ndn.Data, rec ndn.PITRecord, primary bool, now time.Time, outTC ndn.TraceContext, sp *obs.Span) (string, time.Duration) {
	if r.cfg.DisableEnforcement || r.IsEdge() && r.cfg.Colluding && rec.Tag != nil && d.Content != nil {
		// A baseline router decides nothing; a colluding edge (threat (f))
		// delivers regardless of the upstream verdict.
		r.net.SendData(r.index, rec.InFace,
			&ndn.Data{Name: d.Name, Content: d.Content, Tag: rec.Tag, Flag: d.Flag, Trace: outTC}, 0)
		return node.OutcomeDelivered, 0
	}
	var dl node.Delivery
	work := r.net.chargeOps(r.tactic, r.rng, sp, func() { dl = r.core.OnRecord(d, rec, primary, now) })
	var proc time.Duration
	if dl.Stage != enforce.StageNone {
		proc = r.cpuWait(sp, work)
	}
	if dl.Minted {
		r.nacksSent++
	}
	if dl.Cause != "" {
		// Silent, tagged or not (the live edge sends the bare NACK): the
		// client's window slot frees at the 1 s request expiry, the
		// paper's rate limit on attackers.
		r.drop(dl.Cause)
		return node.OutcomeDrop + dl.Cause, proc
	}
	r.net.SendData(r.index, rec.InFace, &ndn.Data{Name: d.Name, Content: dl.Answer.Content, Tag: rec.Tag,
		Flag: dl.Answer.Flag, Nack: dl.Answer.Nack, NackReason: dl.Answer.Reason, Trace: outTC}, proc)
	return node.OutcomeDelivered, proc
}

// Stats snapshots the router's counters.
type RouterNodeStats struct {
	// Ops are the Fig. 7 / Fig. 8 / Table V operation counters.
	Ops metrics.RouterOps
	// Interests and Data count packets processed.
	Interests, Data uint64
	// NACKsSent counts invalidity signals emitted.
	NACKsSent uint64
	// Registrations and RegistrationsFailed count an origin's tag
	// issuances and dropped registration attempts.
	Registrations, RegistrationsFailed uint64
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
			Lookups:       bf.Lookups,
			Insertions:    bf.Insertions,
			Verifications: r.tactic.Validator().Verifications(),
			Resets:        bf.Resets,
			ResetRequests: bf.Absorbed,
			ResetsMerged:  bf.Resets,
		},
		Interests:           r.interests,
		Data:                r.dataSeen,
		NACKsSent:           r.nacksSent,
		Registrations:       r.registrations,
		RegistrationsFailed: r.registrationsFailed,
		Drops:               drops,
		CSHits:              hits,
		CSMisses:            misses,
		PITCreated:          created, PITAggregated: aggregated, PITExpired: expired,
	}
}
