package forwarder

import (
	"math/rand"
	"net"
	"strconv"
	"sync"
	"time"

	"github.com/tactic-icn/tactic/internal/bloom"
	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/enforce"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/obs"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/transport"
)

// Producer is a provider origin server for the real-time stack: it
// answers registration Interests with fresh tags and serves published
// content, running Protocol 3 as the origin content router.
type Producer struct {
	mu       sync.Mutex
	provider *core.Provider
	tactic   *enforce.Router
	store    map[string]*core.Content
	logf     func(format string, args ...any)
	tracer   *obs.Tracer

	served        uint64
	nacked        uint64
	registrations uint64
	regFailed     uint64

	closed chan struct{}
	once   sync.Once
	wg     sync.WaitGroup
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
	bf, err := bloom.NewPaper(500, 1e-4)
	if err != nil {
		return nil, err
	}
	return &Producer{
		provider: provider,
		tactic:   enforce.NewRouter("producer:"+provider.Prefix().String(), bf, core.NewTagValidator(registry), rand.New(rand.NewSource(time.Now().UnixNano())), cfg),
		store:    make(map[string]*core.Content),
		logf:     logf,
		closed:   make(chan struct{}),
	}, nil
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
func (p *Producer) SetTracer(t *obs.Tracer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tracer = t
}

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
		p.mu.Lock()
		defer p.mu.Unlock()
		return float64(p.tactic.Validator().Verifications())
	}, role, prefix)
}

// AddContent installs a published chunk.
func (p *Producer) AddContent(c *core.Content) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.store[c.Meta.Name.Key()] = c
}

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
func (p *Producer) ServeFaces(l transport.FaceListener) error {
	for {
		face, err := l.Accept()
		if err != nil {
			select {
			case <-p.closed:
				return nil
			default:
				return err
			}
		}
		p.wg.Add(1)
		go p.serveConn(face)
	}
}

// ServeConn answers Interests arriving on an already-established
// connection (e.g. one end of a net.Pipe), returning immediately; the
// serving goroutine exits when the connection closes. It lets a
// multi-node topology be assembled entirely over in-process transports —
// the conformance harness wires producers to core routers this way.
func (p *Producer) ServeConn(conn net.Conn) {
	c := transport.New(conn)
	p.wg.Add(1)
	go p.serveConn(c)
}

// serveConn answers one face's Interests.
func (p *Producer) serveConn(c transport.Face) {
	defer p.wg.Done()
	defer c.Close()
	for {
		pkt, err := c.Receive()
		if err != nil {
			return
		}
		if pkt.Interest == nil {
			continue // producers ignore Data
		}
		if d := p.answer(pkt.Interest); d != nil {
			if err := c.SendData(d); err != nil {
				return
			}
		}
	}
}

// answer produces the response for one Interest (nil = drop).
func (p *Producer) answer(i *ndn.Interest) *ndn.Data {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()

	sp := p.tracer.StartCtx(traceCtx(i.Trace), "producer", i.Name.String())

	if i.Kind == ndn.KindRegistration {
		if i.Registration == nil {
			p.regFailed++
			sp.End("drop_bad_registration")
			return nil
		}
		resp, err := p.provider.Register(*i.Registration, now)
		if err != nil {
			p.regFailed++
			if p.logf != nil {
				p.logf("registration rejected: %v", err)
			}
			sp.End("drop_registration_rejected")
			return nil
		}
		p.registrations++
		sp.End("registered")
		return &ndn.Data{Name: i.Name, Registration: resp, Trace: propagateTrace(i.Trace, sp)}
	}

	content, ok := p.store[i.Name.Key()]
	if !ok {
		sp.End("drop_no_content")
		return nil
	}
	var enfStart time.Time
	if sp != nil {
		enfStart = time.Now()
	}
	dec := p.tactic.ContentOnInterest(i.Tag, content.Meta, i.Flag, now)
	if sp != nil {
		enfDur := time.Since(enfStart)
		switch {
		case dec.Verified:
			sp.EventDur("verify", enfDur, verifyDetail(dec.Denied()))
		case dec.BFHit:
			sp.EventDur("bf_lookup", enfDur, "hit")
		default:
			sp.EventDur("bf_lookup", enfDur, "miss")
		}
		sp.Event("flag", formatFlag(dec.Flag))
	}
	outcome := "served"
	if dec.Denied() {
		p.nacked++
		outcome = "nack"
	} else {
		p.served++
	}
	sp.End(outcome)
	return &ndn.Data{
		Name: i.Name, Content: content, Tag: i.Tag,
		Flag: dec.Flag, Nack: dec.Denied(), NackReason: dec.Reason,
		Trace: propagateTrace(i.Trace, sp),
	}
}

// Close stops accepting and waits for in-flight connections.
func (p *Producer) Close() error {
	p.once.Do(func() { close(p.closed) })
	p.wg.Wait()
	return nil
}

// ProducerStats snapshots the origin's counters.
type ProducerStats struct {
	// Served and NACKed count content responses.
	Served, NACKed uint64
	// Registrations and RegistrationsFailed count tag requests.
	Registrations, RegistrationsFailed uint64
}

// Stats returns a snapshot of the producer's counters.
func (p *Producer) Stats() ProducerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return ProducerStats{
		Served: p.served, NACKed: p.nacked,
		Registrations: p.registrations, RegistrationsFailed: p.regFailed,
	}
}
