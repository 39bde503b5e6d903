package network

import (
	"math"
	"math/rand"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/enforce"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/node"
	"github.com/tactic-icn/tactic/internal/obs"
	"github.com/tactic-icn/tactic/internal/pki"
)

// ProviderNode is a content provider's origin server: it answers
// registration Interests with fresh tags (paper §4.A) and serves its
// published content. As the origin it is always a content router for its
// own namespace — an origin-role node core over the catalogue, running
// Protocol 3 with its own Bloom filter — but verifies without queueing:
// the sampled cost delays that one reply, the CPU is not serialised.
type ProviderNode struct {
	net      *Network
	index    int
	provider *core.Provider
	tactic   *enforce.Router
	store    *ndn.ShardedCS // the catalogue: never evicted
	core     *node.Core
	rng      *rand.Rand
	cfg      RouterConfig
	tracer   *obs.Tracer

	registrations       uint64
	registrationsFailed uint64
	served              uint64
	nacked              uint64
}

var _ Node = (*ProviderNode)(nil)

// NewProviderNode creates a provider node. The Bloom filter mirrors the
// routers' configuration; verifier is the shared trust registry.
func NewProviderNode(net *Network, index int, provider *core.Provider, verifier pki.Verifier, rng *rand.Rand, cfg RouterConfig) (*ProviderNode, error) {
	bf, err := newRouterFilter(cfg)
	if err != nil {
		return nil, err
	}
	id := net.Graph.Nodes[index].ID
	p := &ProviderNode{
		net:      net,
		index:    index,
		provider: provider,
		tactic:   enforce.NewRouter(id, bf, core.NewTagValidator(verifier), rng, cfg.Tactic),
		store:    ndn.NewShardedCSOf(1, math.MaxInt),
		rng:      rng,
		cfg:      cfg,
		tracer:   net.Tracer(id, node.RoleOrigin.String()),
	}
	p.core = node.New(p.tactic, nil, nil, p.store, node.RoleOrigin, 0)
	return p, nil
}

// Provider exposes the underlying provider.
func (p *ProviderNode) Provider() *core.Provider { return p.provider }

// AddContent installs a published chunk into the origin store.
func (p *ProviderNode) AddContent(c *core.Content) { p.store.Insert(c) }

// StoreSize returns the number of published chunks.
func (p *ProviderNode) StoreSize() int { return p.store.Len() }

// RegistrationName returns the name clients use to register at this
// provider. Registration Interests carry a unique suffix per request so
// they are never aggregated or cached.
func (p *ProviderNode) RegistrationName() names.Name {
	return p.provider.Prefix().MustAppend("register")
}

// HandleInterest answers registration and content requests.
func (p *ProviderNode) HandleInterest(i *ndn.Interest, from ndn.FaceID) {
	now := p.net.Engine.Now()
	inTC := i.Trace
	sp := p.tracer.StartCtx(inTC, "interest", i.Name.String())
	var checks node.Checks
	if !p.cfg.DisableEnforcement {
		checks = node.Protocol3
	}
	var st node.Step
	proc := p.net.chargeOps(p.tactic, p.rng, sp, func() {
		if st = p.core.OnInterest(i, from, checks, now); st.Action == node.Verify {
			st = p.core.ResumeInterest(i, from, st.Pending, p.tactic.VerifyMiss(st.Pending.Input(i, now)), now)
		}
	})
	switch st.Action {
	case node.Register:
		p.handleRegistration(i, from, now)
	case node.Drop:
		// Unknown content: the requester times out.
		sp.End(node.OutcomeDrop+st.Cause, 0)
	case node.Reply:
		outcome := node.OutcomeCSHit
		if st.Reply.Nack {
			p.nacked++
			outcome = node.OutcomeNack + core.ReasonLabel(st.Reply.Reason)
		} else {
			p.served++
		}
		p.net.SendData(p.index, from, &ndn.Data{Name: i.Name, Content: st.Reply.Content, Tag: i.Tag,
			Flag: st.Reply.Flag, Nack: st.Reply.Nack, NackReason: st.Reply.Reason, Trace: sp.Onward(inTC)}, proc)
		sp.End(outcome, proc)
	}
}

// handleRegistration processes a tag request: verify credentials and
// return a fresh tag, or drop ("provides her a fresh tag if she is
// authorized or drops the request otherwise", §4.A).
func (p *ProviderNode) handleRegistration(i *ndn.Interest, from ndn.FaceID, now time.Time) {
	if i.Registration == nil {
		p.registrationsFailed++
		return
	}
	// The registration request's access path is whatever accumulated
	// between the client and its edge router; the provider copies it
	// into the tag.
	resp, err := p.provider.Register(*i.Registration, now)
	if err != nil {
		p.registrationsFailed++
		return
	}
	p.registrations++
	p.net.SendData(p.index, from, &ndn.Data{Name: i.Name, Registration: resp}, 0)
}

// HandleData is a no-op: providers are origins.
func (p *ProviderNode) HandleData(d *ndn.Data, from ndn.FaceID) {}

// ProviderNodeStats snapshots the provider's counters.
type ProviderNodeStats struct {
	// Registrations counts successful tag issuances.
	Registrations uint64
	// RegistrationsFailed counts dropped registration attempts.
	RegistrationsFailed uint64
	// Served counts content responses without NACK.
	Served uint64
	// NACKed counts content responses with NACK.
	NACKed uint64
	// Verifications counts signature checks at the origin.
	Verifications uint64
}

// Stats returns a copy of the provider's counters.
func (p *ProviderNode) Stats() ProviderNodeStats {
	return ProviderNodeStats{
		Registrations:       p.registrations,
		RegistrationsFailed: p.registrationsFailed,
		Served:              p.served,
		NACKed:              p.nacked,
		Verifications:       p.tactic.Validator().Verifications(),
	}
}
