package forwarder

import (
	"math"
	"net"
	"strconv"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/node"
	"github.com/tactic-icn/tactic/internal/obs"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/transport"
)

// Producer is a provider origin for the real-time stack: a Forwarder
// with the origin role whose content store is the published catalogue,
// so content Interests run Protocol 3 on the one content-router path
// (verify pool, per-face budget and shedding included), plus the provider
// state that answers registration Interests with fresh tags.
type Producer struct {
	node     *Forwarder
	provider *core.Provider // locks itself

	registrations, regFailed *obs.Counter
}

// NewProducer creates an origin server around a provider identity,
// enforcing with the default (TACTIC) scheme.
func NewProducer(provider *core.Provider, registry *pki.Registry, logf func(string, ...any)) (*Producer, error) {
	return NewProducerWithConfig(provider, Config{Registry: registry, WriteTimeout: DefaultWriteTimeout, Logf: logf})
}

// NewProducerWithConfig creates an origin server from a node Config: what
// configures any node — the scheme, telemetry, events, tracing, time-outs,
// the verify pool — configures the origin the same way. The origin role
// and the catalogue's unbounded store are set here; an empty ID names the
// origin after its prefix.
func NewProducerWithConfig(provider *core.Provider, cfg Config) (*Producer, error) {
	cfg.Role, cfg.CSCapacity = node.RoleOrigin, math.MaxInt
	if cfg.ID == "" {
		cfg.ID = "producer:" + provider.Prefix().String()
	}
	p := &Producer{provider: provider}
	var err error
	if p.node, err = newForwarder(cfg, p); err != nil {
		return nil, err
	}
	m := p.node.m
	p.registrations = m.reg.Counter(obs.MetricRegistrations, m.role, obs.L("result", "issued"))
	p.regFailed = m.reg.Counter(obs.MetricRegistrations, m.role, obs.L("result", "failed"))
	return p, nil
}

// Provider returns the origin's provider: enrol, issue and revoke through
// it while serving.
func (p *Producer) Provider() *core.Provider { return p.provider }

// SetTracer records a per-Interest span at the origin for traced
// requests. Call before Serve.
func (p *Producer) SetTracer(t *obs.Tracer) { p.node.cfg.Tracer = t }

// AddContent installs a copy of a published chunk.
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

// publish signs one chunk and installs it. The store keeps it in its
// wire form (ndn.CS.Insert encodes a chunk built locally), so answering
// appends those bytes instead of serialising the payload per Interest.
func (p *Producer) publish(name names.Name, level core.AccessLevel, plaintext []byte) error {
	content, err := p.provider.Publish(name, level, plaintext)
	if err != nil {
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
// a registration Interest is answered with a fresh tag, or — malformed or
// refused — with silence.
func (p *Producer) register(a arrival) {
	f := p.node
	if a.i.Registration == nil {
		p.regFailed.Inc()
		a.sp.End("drop:bad_registration", 0)
		return
	}
	resp, err := p.provider.Register(*a.i.Registration, a.now)
	if err != nil {
		p.regFailed.Inc()
		f.logf("registration rejected: %v", err)
		a.sp.End("drop:registration_rejected", 0)
		return
	}
	p.registrations.Inc()
	f.send(a.out, a.from.id, &ndn.Data{Name: a.i.Name, Registration: resp, Trace: a.outTC})
	a.sp.End("registered", 0)
}

// Status snapshots the origin for /statusz, as any node's.
func (p *Producer) Status() Status { return p.node.Status() }

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
		Registrations: p.registrations.Value(), RegistrationsFailed: p.regFailed.Value(),
	}
}
