package workload

import (
	"math/rand"
	"strconv"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/metrics"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/network"
	"github.com/tactic-icn/tactic/internal/obs"
)

// ConsumerConfig parameterises the Zipf-window consumer of §8.A: "each
// client is equipped with a fixed size window for outstanding requests
// (set to 5 requests in our simulations)" with a 1 s request expiry.
type ConsumerConfig struct {
	// Window is the outstanding-request window (paper: 5).
	Window int
	// RequestTimeout expires outstanding requests (paper: 1 s).
	RequestTimeout time.Duration
	// RequestGap paces request issuance; each consumer attempts one
	// issue per gap (jittered ±50%), bounding its request rate at
	// ~1/gap.
	RequestGap time.Duration
	// StartJitter randomises consumer start times in [0, StartJitter).
	StartJitter time.Duration
	// TraceEvery head-samples every Nth content request for end-to-end
	// tracing (0 = off); effective only when the network traces
	// (Network.Spans).
	TraceEvery int
}

// DefaultConsumerConfig returns the paper's client parameters with a
// pacing gap that lands aggregate request rates in the paper's observed
// range (~20 chunks/s per client).
func DefaultConsumerConfig() ConsumerConfig {
	return ConsumerConfig{
		Window:         5,
		RequestTimeout: time.Second,
		RequestGap:     48 * time.Millisecond,
		StartJitter:    time.Second,
	}
}

// pending tracks one outstanding request.
type pending struct {
	name     names.Name
	sentAt   time.Time
	isReg    bool
	provider names.Name
	token    uint64
	// span is the request's hop-0 trace span (nil when untraced).
	span *obs.Span
}

// Consumer is a simulated end device: a Zipf-window client or an
// attacker, depending on its TagSource. It picks objects by popularity,
// fetches their chunks through its window, registers for tags on demand,
// and records the paper's user-based metrics.
type Consumer struct {
	net     *network.Network
	index   int
	id      string
	face    ndn.FaceID
	source  TagSource
	catalog *Catalog
	zipf    *Zipf
	rng     *rand.Rand
	cfg     ConsumerConfig
	tracer  *obs.Tracer
	// providerKeyByPrefix resolves a chunk's provider prefix to its
	// registration name.
	regNameByPrefix map[string]names.Name

	queue      []names.Name // chunk names of the current object
	queueOwner names.Name   // provider prefix of the current object
	inFlight   map[string]*pending
	regPending map[string]bool
	nonce      uint64
	token      uint64
	traceSeq   uint64

	delivery      metrics.Delivery
	latency       metrics.Latency
	latencySeries *metrics.TimeSeries
	tagQ          *metrics.TimeSeries
	tagR          *metrics.TimeSeries
	nacks         uint64
	timeouts      uint64
	sourceErrs    uint64
	moves         uint64
}

var _ network.Node = (*Consumer)(nil)

// NewConsumer creates a consumer at graph index (which must have exactly
// one face, to its access point).
func NewConsumer(net *network.Network, index int, source TagSource, catalog *Catalog, zipf *Zipf, rng *rand.Rand, regNames map[string]names.Name, cfg ConsumerConfig) *Consumer {
	id := net.Graph.Nodes[index].ID
	return &Consumer{
		net:             net,
		index:           index,
		id:              id,
		face:            0,
		source:          source,
		catalog:         catalog,
		zipf:            zipf,
		rng:             rng,
		cfg:             cfg,
		tracer:          net.Tracer(id, "client"),
		regNameByPrefix: regNames,
		inFlight:        make(map[string]*pending),
		regPending:      make(map[string]bool),
		latencySeries:   metrics.NewTimeSeries(time.Second),
		tagQ:            metrics.NewTimeSeries(time.Second),
		tagR:            metrics.NewTimeSeries(time.Second),
	}
}

// ID returns the consumer's node identity.
func (c *Consumer) ID() string { return c.id }

// MoveTo hands the consumer over to a different access point: the
// network re-aims its radio link and, for sources that track location
// (honest clients), the access path updates so the next request
// triggers a fresh registration (§4.A). Outstanding requests are left
// to time out, as in a real handover.
func (c *Consumer) MoveTo(newAPIndex int) error {
	if err := c.net.Rehome(c.index, newAPIndex); err != nil {
		return err
	}
	if mover, ok := c.source.(interface{ SetAccessPath(core.AccessPath) }); ok {
		apID := c.net.Graph.Nodes[newAPIndex].ID
		mover.SetAccessPath(core.EmptyAccessPath.Accumulate(apID))
	}
	c.moves++
	return nil
}

// Moves returns the number of completed handovers.
func (c *Consumer) Moves() uint64 { return c.moves }

// AttachCollectors replaces the consumer's metric series with shared
// ones, so an experiment can aggregate per-second statistics across all
// consumers without averaging averages. Call before Start.
func (c *Consumer) AttachCollectors(latency, tagQ, tagR *metrics.TimeSeries) {
	if latency != nil {
		c.latencySeries = latency
	}
	if tagQ != nil {
		c.tagQ = tagQ
	}
	if tagR != nil {
		c.tagR = tagR
	}
}

// Start schedules the consumer's first request cycle.
func (c *Consumer) Start() {
	delay := time.Duration(0)
	if c.cfg.StartJitter > 0 {
		delay = time.Duration(c.rng.Int63n(int64(c.cfg.StartJitter)))
	}
	c.net.Engine.Schedule(delay, c.cycle)
}

// cycle attempts one request issue and reschedules itself.
func (c *Consumer) cycle() {
	c.tryIssue()
	gap := c.cfg.RequestGap
	jitter := time.Duration(float64(gap) * (0.5 + c.rng.Float64()))
	c.net.Engine.Schedule(jitter, c.cycle)
}

// tryIssue issues at most one request, respecting the window.
func (c *Consumer) tryIssue() {
	if len(c.inFlight) >= c.cfg.Window {
		return
	}
	if len(c.queue) == 0 {
		c.pickObject()
	}
	if len(c.queue) == 0 {
		return
	}
	now := c.net.Engine.Now()
	chunkName := c.queue[0]
	provPrefix := c.queueOwner

	tag, reg, err := c.source.Prepare(provPrefix, now)
	if err != nil {
		c.sourceErrs++
		return
	}
	if reg != nil {
		c.sendRegistration(provPrefix, reg, now)
		return
	}
	// Content request.
	c.queue = c.queue[1:]
	if _, dup := c.inFlight[chunkName.Key()]; dup {
		return
	}
	c.nonce++
	i := &ndn.Interest{
		Name:  chunkName,
		Kind:  ndn.KindContent,
		Nonce: c.consumerNonce(),
		Tag:   tag,
	}
	// Head-sampling: the consumer decides which requests are traced and
	// stamps the wire context every downstream hop links to.
	var sp *obs.Span
	if c.cfg.TraceEvery > 0 && c.tracer != nil {
		if c.traceSeq%uint64(c.cfg.TraceEvery) == 0 {
			sp = c.tracer.StartRoot("fetch", chunkName.String())
			i.Trace = sp.Onward(ndn.TraceContext{})
		}
		c.traceSeq++
	}
	c.track(chunkName, provPrefix, false, now, sp)
	c.delivery.Requested++
	c.net.SendInterest(c.index, c.face, i, 0)
}

// consumerNonce builds a node-unique nonce.
func (c *Consumer) consumerNonce() uint64 {
	return uint64(c.index)<<40 | c.nonce
}

// sendRegistration issues a tag request toward the provider.
func (c *Consumer) sendRegistration(provPrefix names.Name, reg *core.RegistrationRequest, now time.Time) {
	if c.regPending[provPrefix.Key()] {
		return
	}
	base, ok := c.regNameByPrefix[provPrefix.Key()]
	if !ok {
		c.sourceErrs++
		return
	}
	c.nonce++
	name := base.MustAppend(c.id, "n"+strconv.FormatUint(c.nonce, 10))
	i := &ndn.Interest{
		Name:         name,
		Kind:         ndn.KindRegistration,
		Nonce:        c.consumerNonce(),
		Registration: reg,
	}
	c.regPending[provPrefix.Key()] = true
	c.track(name, provPrefix, true, now, nil)
	c.tagQ.Add(c.net.Engine.Elapsed(), 1)
	c.net.SendInterest(c.index, c.face, i, 0)
}

// track registers an outstanding request and schedules its timeout.
func (c *Consumer) track(name names.Name, provider names.Name, isReg bool, now time.Time, sp *obs.Span) {
	c.token++
	p := &pending{name: name, sentAt: now, isReg: isReg, provider: provider, token: c.token, span: sp}
	c.inFlight[name.Key()] = p
	tok := c.token
	c.net.Engine.Schedule(c.cfg.RequestTimeout, func() {
		cur, ok := c.inFlight[name.Key()]
		if !ok || cur.token != tok {
			return
		}
		delete(c.inFlight, name.Key())
		c.timeouts++
		cur.span.End("timeout", 0)
		if cur.isReg {
			delete(c.regPending, cur.provider.Key())
		}
	})
}

// pickObject selects the next object by popularity and queues its
// chunks.
func (c *Consumer) pickObject() {
	obj := c.catalog.Objects[c.zipf.Sample(c.rng)]
	c.queue = make([]names.Name, 0, obj.Chunks)
	for k := 0; k < obj.Chunks; k++ {
		c.queue = append(c.queue, obj.ChunkName(k))
	}
	c.queueOwner = obj.Prefix
}

// HandleInterest is a no-op: consumers never forward.
func (c *Consumer) HandleInterest(i *ndn.Interest, from ndn.FaceID) {}

// HandleData completes outstanding requests.
func (c *Consumer) HandleData(d *ndn.Data, from ndn.FaceID) {
	p, ok := c.inFlight[d.Name.Key()]
	if !ok {
		return
	}
	delete(c.inFlight, d.Name.Key())

	now := c.net.Engine.Now()
	switch {
	case d.Registration != nil:
		delete(c.regPending, p.provider.Key())
		if err := c.source.OnRegistration(p.provider, d.Registration); err != nil {
			c.sourceErrs++
			return
		}
		c.tagR.Add(c.net.Engine.Elapsed(), 1)
	case d.Nack || d.Content == nil:
		if p.isReg {
			delete(c.regPending, p.provider.Key())
		}
		c.nacks++
		p.span.End("nack", 0)
	default:
		lat := now.Sub(p.sentAt)
		c.delivery.Received++
		c.latency.Observe(lat)
		c.latencySeries.Observe(c.net.Engine.Elapsed(), lat.Seconds())
		p.span.End("delivered", 0)
	}
}

// ConsumerStats snapshots the paper's user-based metrics for one
// consumer.
type ConsumerStats struct {
	// Delivery is the requested/received chunk tally (Table IV).
	Delivery metrics.Delivery
	// Latency aggregates content-retrieval latency (Fig. 5).
	Latency metrics.Latency
	// NACKs counts invalidity signals received.
	NACKs uint64
	// Timeouts counts expired requests.
	Timeouts uint64
	// SourceErrors counts tag-source failures.
	SourceErrors uint64
}

// Stats returns the consumer's counters.
func (c *Consumer) Stats() ConsumerStats {
	return ConsumerStats{
		Delivery:     c.delivery,
		Latency:      c.latency,
		NACKs:        c.nacks,
		Timeouts:     c.timeouts,
		SourceErrors: c.sourceErrs,
	}
}

// LatencySeries returns the per-second average latency series (seconds).
func (c *Consumer) LatencySeries() *metrics.TimeSeries { return c.latencySeries }

// TagSeries returns the tag-request (Q) and tag-receive (R) per-second
// series (Fig. 6).
func (c *Consumer) TagSeries() (q, r *metrics.TimeSeries) { return c.tagQ, c.tagR }
