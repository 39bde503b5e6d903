package network

import (
	"math/rand"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/enforce"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/pki"
)

// ProviderNode is a content provider's origin server: it answers
// registration Interests with fresh tags (paper §4.A) and serves its
// published content. As the origin it is always a content router for its
// own namespace, so it runs Protocol 3 on content requests, with its own
// Bloom filter caching tag validations.
type ProviderNode struct {
	net      *Network
	index    int
	provider *core.Provider
	tactic   *enforce.Router
	store    map[string]*core.Content
	rng      *rand.Rand
	cfg      RouterConfig

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
	return &ProviderNode{
		net:      net,
		index:    index,
		provider: provider,
		tactic:   enforce.NewRouter(id, bf, core.NewTagValidator(verifier), rng, cfg.Tactic),
		store:    make(map[string]*core.Content),
		rng:      rng,
		cfg:      cfg,
	}, nil
}

// Provider exposes the underlying provider.
func (p *ProviderNode) Provider() *core.Provider { return p.provider }

// AddContent installs a published chunk into the origin store.
func (p *ProviderNode) AddContent(c *core.Content) {
	p.store[c.Meta.Name.Key()] = c
}

// StoreSize returns the number of published chunks.
func (p *ProviderNode) StoreSize() int { return len(p.store) }

// RegistrationName returns the name clients use to register at this
// provider. Registration Interests carry a unique suffix per request so
// they are never aggregated or cached.
func (p *ProviderNode) RegistrationName() names.Name {
	return p.provider.Prefix().MustAppend("register")
}

// HandleInterest answers registration and content requests.
func (p *ProviderNode) HandleInterest(i *ndn.Interest, from ndn.FaceID) {
	now := p.net.Engine.Now()
	if i.Kind == ndn.KindRegistration {
		p.handleRegistration(i, from, now)
		return
	}
	inTC := i.Trace
	sp := p.net.StartTraceSpan(inTC, p.net.Graph.Nodes[p.index].ID, "producer", "interest", i.Name.String())
	content, ok := p.store[i.Name.Key()]
	if !ok {
		// Unknown content: drop; the requester times out.
		sp.End("drop_no_content", 0)
		return
	}
	if p.cfg.DisableEnforcement {
		p.served++
		d := &ndn.Data{Name: i.Name, Content: content, Tag: i.Tag, Flag: i.Flag, Trace: NextHopTrace(inTC, sp)}
		p.net.SendData(p.index, from, d, 0)
		sp.End("served", 0)
		return
	}
	var dec enforce.Verdict
	proc := p.net.chargeOps(p.tactic, p.rng, sp, func() {
		dec = p.tactic.ContentOnInterest(i.Tag, content.Meta, i.Flag, now)
	})
	outcome := "served"
	if dec.Denied() {
		p.nacked++
		outcome = "nack"
	} else {
		p.served++
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
	p.net.SendData(p.index, from, d, proc)
	sp.End(outcome, proc)
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
	req := *i.Registration
	resp, err := p.provider.Register(req, now)
	if err != nil {
		p.registrationsFailed++
		return
	}
	p.registrations++
	d := &ndn.Data{Name: i.Name, Registration: resp}
	p.net.SendData(p.index, from, d, 0)
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
