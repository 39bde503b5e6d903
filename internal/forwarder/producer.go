package forwarder

import (
	"math"
	"net"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/node"
	"github.com/tactic-icn/tactic/internal/obs"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/transport"
)

// Producer is a provider origin for the real-time stack: a core-role
// Forwarder whose content store is the published catalogue, so content
// Interests run Protocol 3 on the one content-router path (verify pool,
// per-face budget and shedding included), plus the provider state that
// answers registration Interests with fresh tags.
type Producer struct {
	node *Forwarder

	mu       sync.Mutex // guards provider
	provider *core.Provider

	registrations atomic.Uint64
	regFailed     atomic.Uint64
}

// NewProducer creates an origin server around a provider identity,
// enforcing with the default (TACTIC) scheme.
func NewProducer(provider *core.Provider, registry *pki.Registry, logf func(string, ...any)) (*Producer, error) {
	return NewProducerWithConfig(provider, registry, logf, core.Config{})
}

// NewProducerWithConfig creates an origin server running the given
// enforcement configuration — the origin is a content router, so a
// scheme selected for the plane must reach it too.
func NewProducerWithConfig(provider *core.Provider, registry *pki.Registry, logf func(string, ...any), cfg core.Config) (*Producer, error) {
	// The catalogue is never evicted: the store is unbounded.
	fwd, err := New(Config{ID: "producer:" + provider.Prefix().String(), Role: RoleCore,
		Registry: registry, CSCapacity: math.MaxInt, WriteTimeout: DefaultWriteTimeout, Tactic: cfg, Logf: logf})
	if err != nil {
		return nil, err
	}
	p := &Producer{node: fwd, provider: provider}
	fwd.origin = p
	fwd.node = node.New(fwd.tactic, nil, nil, fwd.cs, node.RoleOrigin, 0)
	return p, nil
}

// Provider exposes the underlying provider, for set-up before the
// producer serves: the provider is not safe for concurrent use, and once
// faces are attached every access goes through the producer's lock.
func (p *Producer) Provider() *core.Provider { return p.provider }

// Enroll creates (or updates) a client account; safe while serving.
func (p *Producer) Enroll(clientKey names.Name, key pki.PublicKey, level core.AccessLevel) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.provider.Enroll(clientKey, key, level)
}

// Revoke removes a client's account; safe while serving.
func (p *Producer) Revoke(clientKey names.Name) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.provider.Revoke(clientKey)
}

// SetTracer records a per-Interest span at the origin for traced
// requests. Call before Serve.
func (p *Producer) SetTracer(t *obs.Tracer) { p.node.cfg.Tracer = t }

// Instrument exposes the producer's counters on reg as scrape-time
// callbacks, labelled with the provider prefix. Safe on a nil registry.
func (p *Producer) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	role := obs.L("role", "producer")
	prefix := obs.L("provider", p.provider.Prefix().String())
	sampled := func(get func(ProducerStats) uint64) func() float64 {
		return func() float64 { return float64(get(p.Stats())) }
	}
	reg.Help(MetricProducerServed, "Content responses served by the origin.")
	reg.Help(MetricProducerNACKs, "Requests NACKed by the origin (unknown content, registration refusals).")
	reg.Help(MetricRegistrations, "Tag registrations handled by the origin, by result.")
	reg.CounterFunc(MetricProducerServed, sampled(func(s ProducerStats) uint64 { return s.Served }), role, prefix)
	reg.CounterFunc(MetricProducerNACKs, sampled(func(s ProducerStats) uint64 { return s.NACKed }), role, prefix)
	reg.CounterFunc(MetricRegistrations, sampled(func(s ProducerStats) uint64 { return s.Registrations }), role, prefix, obs.L("result", "issued"))
	reg.CounterFunc(MetricRegistrations, sampled(func(s ProducerStats) uint64 { return s.RegistrationsFailed }), role, prefix, obs.L("result", "failed"))
	reg.CounterFunc(MetricVerifications, func() float64 {
		return float64(p.node.tactic.Validator().Verifications())
	}, role, prefix)
}

// AddContent installs a published chunk.
func (p *Producer) AddContent(c *core.Content) { p.node.cs.Insert(c) }

// PublishObject chunks and publishes a payload as
// <prefix>/<object>/chunk<i> plus a <prefix>/<object>/manifest chunk
// carrying the decimal chunk count, and returns the chunk count.
func (p *Producer) PublishObject(object string, level core.AccessLevel, payload []byte, chunkSize int) (int, error) {
	if chunkSize <= 0 {
		chunkSize = 1024
	}
	base, err := p.provider.Prefix().Append(object)
	if err != nil {
		return 0, err
	}
	chunks := 0
	for off := 0; off < len(payload) || chunks == 0; off += chunkSize {
		end := off + chunkSize
		if end > len(payload) {
			end = len(payload)
		}
		name := base.MustAppend("chunk" + strconv.Itoa(chunks))
		if err := p.publish(name, level, payload[off:end]); err != nil {
			return chunks, err
		}
		chunks++
	}
	if err := p.publish(base.MustAppend("manifest"), level, []byte(strconv.Itoa(chunks))); err != nil {
		return chunks, err
	}
	return chunks, nil
}

// publish signs one chunk and installs it in its wire form: the copy
// DecodeContent hands back carries its encoding, so answering with it
// appends those bytes instead of serialising the payload per Interest.
func (p *Producer) publish(name names.Name, level core.AccessLevel, plaintext []byte) error {
	content, err := p.provider.Publish(name, level, plaintext)
	if err != nil {
		return err
	}
	enc, err := core.EncodeContent(content)
	if err != nil {
		return err
	}
	if content, err = core.DecodeContent(enc); err != nil {
		return err
	}
	p.AddContent(content)
	return nil
}

// ServeFaces accepts faces from any FaceListener — a stream listener
// or a UDP endpoint (one face per remote, created on its first
// datagram) — until the listener closes.
func (p *Producer) ServeFaces(l transport.FaceListener) error { return p.node.ServeFaces(l) }

// ServeConn answers Interests arriving on an already-established
// connection (e.g. one end of a net.Pipe), returning immediately. It lets
// a multi-node topology be assembled entirely over in-process transports —
// the conformance harness wires producers to core routers this way.
func (p *Producer) ServeConn(conn net.Conn) { p.node.AddFace(transport.New(conn), true) }

// register is the origin's end of the Interest pipeline (node.Register):
// a registration Interest is answered with a fresh tag under the
// provider's lock, or — malformed or refused — with silence.
func (p *Producer) register(a arrival) {
	f := p.node
	if a.i.Registration == nil {
		p.regFailed.Add(1)
		a.sp.End("drop:bad_registration", 0)
		return
	}
	p.mu.Lock()
	resp, err := p.provider.Register(*a.i.Registration, a.now)
	p.mu.Unlock()
	if err != nil {
		p.regFailed.Add(1)
		f.logf("registration rejected: %v", err)
		a.sp.End("drop:registration_rejected", 0)
		return
	}
	p.registrations.Add(1)
	f.send(a.from.id, &ndn.Data{Name: a.i.Name, Registration: resp, Trace: a.outTC})
	a.sp.End("registered", 0)
}

// Close stops the origin: every face is closed, peers still connected
// or not, and its goroutines have exited on return.
func (p *Producer) Close() error { return p.node.Close() }

// ProducerStats snapshots the origin's counters.
type ProducerStats struct {
	// Served and NACKed count content responses.
	Served, NACKed uint64
	// Registrations and RegistrationsFailed count tag requests.
	Registrations, RegistrationsFailed uint64
}

// Stats returns a snapshot of the producer's counters: content replies
// are the node's content-store hits and NACKs.
func (p *Producer) Stats() ProducerStats {
	st := p.node.Stats()
	return ProducerStats{
		Served: st.CSHits, NACKed: st.NACKs,
		Registrations: p.registrations.Load(), RegistrationsFailed: p.regFailed.Load(),
	}
}
