package forwarder

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/obs"
	"github.com/tactic-icn/tactic/internal/transport"
)

// Client fetches content through a TACTIC edge over a real connection:
// it registers for tags on demand, attaches them to Interests, matches
// responses to outstanding requests, and surfaces NACKs as errors.
type Client struct {
	conn     transport.Face
	identity *core.Client
	nodeID   string
	ap       core.AccessPath

	mu        sync.Mutex
	pending   map[string]chan *ndn.Data
	nonce     uint64
	nonceSalt uint64
	readErr   error
	attempts  int

	// Tracing: the client owns the head-sampling decision for the whole
	// request path — every traceEvery-th Fetch starts a hop-0 root span
	// and stamps the wire TraceContext downstream hops link to.
	tracer     *obs.Tracer
	traceEvery uint64
	traceSeq   atomic.Uint64
	lastTrace  atomic.Uint64

	fetchOK, fetchNACK, fetchTimeout, fetchErr atomic.Uint64
	regOK, regFailed, retransmits              atomic.Uint64

	closed chan struct{}
	once   sync.Once
	wg     sync.WaitGroup
}

// Client errors.
var (
	// ErrNACK is returned when the network rejects a request's tag.
	ErrNACK = errors.New("forwarder: request NACKed")
	// ErrTimeout is returned when no response arrives in time.
	ErrTimeout = errors.New("forwarder: request timed out")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("forwarder: client closed")
)

// Dial connects a client identity to an edge forwarder. The address
// may carry a scheme ("udp://host:port" fetches over datagrams); bare
// addresses dial TCP. edgeID is the edge's entity identity, which
// determines the access path tags bind to (the edge is the client's
// first-hop entity); nodeID names this device in registration
// Interests.
func Dial(addr string, identity *core.Client, nodeID, edgeID string) (*Client, error) {
	face, err := transport.DialFace(addr, transport.UDPOptions{})
	if err != nil {
		return nil, fmt.Errorf("forwarder: dial edge %s: %w", addr, err)
	}
	var salt [8]byte
	if _, err := rand.Read(salt[:]); err != nil {
		face.Close()
		return nil, fmt.Errorf("forwarder: nonce salt: %w", err)
	}
	c := &Client{
		conn:     face,
		identity: identity,
		nodeID:   nodeID,
		ap:       core.EmptyAccessPath.Accumulate(edgeID),
		// The salt keeps this client's nonces globally unique, so two
		// clients racing for the same name are aggregated rather than
		// mistaken for one retransmitted Interest.
		nonceSalt: binary.BigEndian.Uint64(salt[:]) &^ 0xFFFFFFFF,
		pending:   make(map[string]chan *ndn.Data),
		closed:    make(chan struct{}),
	}
	c.wg.Add(1)
	go c.readLoop()
	return c, nil
}

// readLoop dispatches responses to their waiters.
func (c *Client) readLoop() {
	defer c.wg.Done()
	for {
		pkt, err := c.conn.Receive()
		if err != nil {
			c.mu.Lock()
			c.readErr = err
			for k, ch := range c.pending {
				close(ch)
				delete(c.pending, k)
			}
			c.mu.Unlock()
			return
		}
		if pkt.Data == nil {
			continue
		}
		c.mu.Lock()
		ch, ok := c.pending[pkt.Data.Name.Key()]
		if ok {
			delete(c.pending, pkt.Data.Name.Key())
		}
		c.mu.Unlock()
		if ok {
			ch <- pkt.Data
			close(ch)
		}
	}
}

// await registers a waiter for a name and sends the Interest.
func (c *Client) await(i *ndn.Interest, timeout time.Duration) (*ndn.Data, error) {
	ch := make(chan *ndn.Data, 1)
	key := i.Name.Key()
	c.mu.Lock()
	if c.readErr != nil {
		c.mu.Unlock()
		return nil, c.readErr
	}
	if _, dup := c.pending[key]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("forwarder: duplicate outstanding request for %s", i.Name)
	}
	c.pending[key] = ch
	c.mu.Unlock()

	if err := c.conn.SendInterest(i); err != nil {
		c.mu.Lock()
		delete(c.pending, key)
		c.mu.Unlock()
		return nil, err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case d, ok := <-ch:
		if !ok {
			return nil, ErrClosed
		}
		return d, nil
	case <-timer.C:
		c.mu.Lock()
		delete(c.pending, key)
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrTimeout, i.Name)
	case <-c.closed:
		return nil, ErrClosed
	}
}

// DefaultFetchAttempts is the per-request send budget: the original
// Interest plus up to two retransmissions. Retransmissions recover
// Interests lost to packet drops or an upstream failing over; each
// carries a fresh nonce so PITs treat it as a new request instead of
// suppressing it as a duplicate.
const DefaultFetchAttempts = 3

// SetAttempts sets the per-request send budget (Interest + retransmits);
// n < 1 selects DefaultFetchAttempts. Call before issuing requests.
func (c *Client) SetAttempts(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempts = n
}

// StartKeepalive emits liveness frames on the client's face every
// interval (<= 0 is a no-op). Required over datagram edges: a quiet
// stream client is detected dead by its FIN, but a quiet UDP client is
// indistinguishable from a vanished one, so the edge reaps its face by
// idle timeout unless keepalives refresh it.
func (c *Client) StartKeepalive(interval time.Duration) {
	c.conn.StartKeepalive(interval)
}

// SetTracer enables end-to-end tracing: every every-th Fetch records a
// hop-0 span and marks its Interests sampled on the wire, so each
// traced hop records a linked span. every <= 0 disables; every == 1
// traces all fetches. Call before issuing requests.
func (c *Client) SetTracer(t *obs.Tracer, every int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tracer = t
	if every < 0 {
		every = 0
	}
	c.traceEvery = uint64(every)
}

// traceRoot applies the head-sampling decision for one request and
// returns the hop-0 root span, or nil when this request is untraced.
func (c *Client) traceRoot(kind string, name names.Name) *obs.Span {
	c.mu.Lock()
	t, every := c.tracer, c.traceEvery
	c.mu.Unlock()
	if t == nil || every == 0 {
		return nil
	}
	if (c.traceSeq.Add(1)-1)%every != 0 {
		return nil
	}
	sp := t.StartRoot(kind, name.String())
	if sp != nil {
		c.lastTrace.Store(sp.TraceID())
	}
	return sp
}

// LastTraceID returns the trace ID of the most recent traced request
// (0 when nothing has been traced yet).
func (c *Client) LastTraceID() uint64 { return c.lastTrace.Load() }

// endTrace finishes a request's root span with its fetch outcome.
func endTrace(sp *obs.Span, err error) {
	if sp == nil {
		return
	}
	switch {
	case err == nil:
		sp.End("delivered", 0)
	case errors.Is(err, ErrNACK):
		sp.End("nack", 0)
	case errors.Is(err, ErrTimeout):
		sp.End("timeout", 0)
	default:
		sp.End("error", 0)
	}
}

// sendBudget returns the effective per-request attempt count.
func (c *Client) sendBudget() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.attempts < 1 {
		return DefaultFetchAttempts
	}
	return c.attempts
}

// awaitRetry runs await with the client's retransmission budget. The
// total timeout is split evenly across attempts so a request's
// worst-case latency stays the caller's timeout regardless of budget.
// Only timeouts retransmit: a NACK is an authoritative answer (await
// returns it as Data, never retried here) and transport or close errors
// cannot be recovered by resending. mk builds the Interest for each
// attempt — a fresh nonce per transmission, so routers aggregate the
// retransmission onto a live PIT entry or re-forward it, rather than
// dropping it as a duplicate.
func (c *Client) awaitRetry(mk func(nonce uint64) *ndn.Interest, timeout time.Duration) (*ndn.Data, error) {
	attempts := c.sendBudget()
	per := timeout / time.Duration(attempts)
	if per <= 0 {
		per = timeout
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			c.retransmits.Add(1)
		}
		d, err := c.await(mk(c.nextNonce()), per)
		if err == nil {
			return d, nil
		}
		lastErr = err
		if !errors.Is(err, ErrTimeout) {
			return nil, err
		}
	}
	return nil, lastErr
}

// nextNonce returns a fresh, salted request nonce.
func (c *Client) nextNonce() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nonce++
	return c.nonceSalt | (c.nonce & 0xFFFFFFFF)
}

// Register obtains a fresh tag from the provider owning prefix.
func (c *Client) Register(providerPrefix names.Name, timeout time.Duration) error {
	req, err := c.identity.NewRegistrationRequest(c.ap)
	if err != nil {
		return err
	}
	d, err := c.awaitRetry(func(nonce uint64) *ndn.Interest {
		// The nonce is part of the name so each transmission opens its
		// own PIT entry end to end; a retransmission after an upstream
		// failover is re-forwarded rather than stuck behind the lost one.
		return &ndn.Interest{
			Name:         providerPrefix.MustAppend("register", c.nodeID, "n"+strconv.FormatUint(nonce, 16)),
			Kind:         ndn.KindRegistration,
			Nonce:        nonce,
			Registration: &req,
		}
	}, timeout)
	if err != nil {
		c.regFailed.Add(1)
		return err
	}
	if d.Registration == nil {
		c.regFailed.Add(1)
		return fmt.Errorf("forwarder: registration for %s got no tag", providerPrefix)
	}
	if err := c.identity.StoreRegistration(providerPrefix, d.Registration); err != nil {
		c.regFailed.Add(1)
		return err
	}
	c.regOK.Add(1)
	return nil
}

// Fetch retrieves one chunk, registering first when no valid tag is
// held. The returned content is provider-signed ciphertext; use Decrypt
// for the plaintext.
func (c *Client) Fetch(name names.Name, timeout time.Duration) (*core.Content, error) {
	prefix := name.ProviderPrefix()
	tag := c.identity.TagFor(prefix, c.ap, time.Now())
	if tag == nil {
		if err := c.Register(prefix, timeout); err != nil {
			return nil, fmt.Errorf("forwarder: register at %s: %w", prefix, err)
		}
		tag = c.identity.TagFor(prefix, c.ap, time.Now())
	}
	sp := c.traceRoot("fetch", name)
	attempt := 0
	d, err := c.awaitRetry(func(nonce uint64) *ndn.Interest {
		if sp != nil && attempt > 0 {
			sp.Event("retransmit", "attempt "+strconv.Itoa(attempt))
		}
		attempt++
		return &ndn.Interest{
			Name:  name,
			Kind:  ndn.KindContent,
			Nonce: nonce,
			Tag:   tag,
			Trace: sp.Onward(ndn.TraceContext{}),
		}
	}, timeout)
	if err != nil {
		if errors.Is(err, ErrTimeout) {
			c.fetchTimeout.Add(1)
		} else {
			c.fetchErr.Add(1)
		}
		endTrace(sp, err)
		return nil, err
	}
	if d.Nack || d.Content == nil {
		c.fetchNACK.Add(1)
		if sp != nil {
			sp.Event("nack", core.ReasonLabel(d.NackReason))
		}
		endTrace(sp, ErrNACK)
		return nil, fmt.Errorf("%w: %s", ErrNACK, name)
	}
	c.fetchOK.Add(1)
	if sp != nil && d.Trace.Valid() {
		sp.Event("response", "path_hops "+strconv.Itoa(int(d.Trace.Hops)))
	}
	endTrace(sp, nil)
	return d.Content, nil
}

// ClientStats snapshots a client's request outcomes.
type ClientStats struct {
	// FetchOK/FetchNACK/FetchTimeout/FetchErr count content fetches by
	// outcome; the error bucket covers transport and close failures.
	FetchOK, FetchNACK, FetchTimeout, FetchErr uint64
	// Registrations and RegistrationsFailed count tag acquisitions.
	Registrations, RegistrationsFailed uint64
	// Retransmits counts Interests resent after a per-attempt timeout.
	Retransmits uint64
	// Conn carries the underlying connection's frame counters.
	Conn transport.Stats
}

// Stats returns a snapshot of the client's counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		FetchOK: c.fetchOK.Load(), FetchNACK: c.fetchNACK.Load(),
		FetchTimeout: c.fetchTimeout.Load(), FetchErr: c.fetchErr.Load(),
		Registrations: c.regOK.Load(), RegistrationsFailed: c.regFailed.Load(),
		Retransmits: c.retransmits.Load(),
		Conn:        c.conn.Stats(),
	}
}

// DefaultWindow is FetchObject's outstanding-request window — the
// paper's Zipf-window clients keep 5 Interests in flight.
const DefaultWindow = 5

// FetchObject retrieves an object published with Producer.PublishObject:
// it reads the object's manifest chunk for the chunk count, fetches the
// chunks through a DefaultWindow-sized pipeline, and concatenates the
// decrypted payloads.
func (c *Client) FetchObject(base names.Name, timeout time.Duration) ([]byte, int, error) {
	prefix := base.ProviderPrefix()
	manifest, err := c.Fetch(base.MustAppend("manifest"), timeout)
	if err != nil {
		return nil, 0, fmt.Errorf("forwarder: fetch manifest: %w", err)
	}
	countRaw, err := c.identity.Decrypt(prefix, manifest)
	if err != nil {
		return nil, 0, fmt.Errorf("forwarder: decrypt manifest: %w", err)
	}
	count, err := strconv.Atoi(string(countRaw))
	if err != nil || count < 0 {
		return nil, 0, fmt.Errorf("forwarder: bad manifest %q", countRaw)
	}

	// Ensure a tag exists before fanning out, so concurrent chunk
	// fetches never race to register.
	if c.identity.TagFor(prefix, c.ap, time.Now()) == nil {
		if err := c.Register(prefix, timeout); err != nil {
			return nil, 0, fmt.Errorf("forwarder: register at %s: %w", prefix, err)
		}
	}

	type result struct {
		chunk int
		plain []byte
		err   error
	}
	work := make(chan int)
	results := make(chan result, DefaultWindow)
	var wg sync.WaitGroup
	for w := 0; w < DefaultWindow; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for chunk := range work {
				name := base.MustAppend("chunk" + strconv.Itoa(chunk))
				content, err := c.Fetch(name, timeout)
				if err != nil {
					results <- result{chunk: chunk, err: err}
					continue
				}
				plain, err := c.identity.Decrypt(prefix, content)
				if err != nil {
					err = fmt.Errorf("forwarder: decrypt %s: %w", name, err)
				}
				results <- result{chunk: chunk, plain: plain, err: err}
			}
		}()
	}
	go func() {
		for chunk := 0; chunk < count; chunk++ {
			work <- chunk
		}
		close(work)
		wg.Wait()
		close(results)
	}()

	chunks := make([][]byte, count)
	done := 0
	var firstErr error
	for res := range results {
		if res.err != nil && firstErr == nil {
			firstErr = res.err
		}
		if res.err == nil {
			chunks[res.chunk] = res.plain
			done++
		}
	}
	if firstErr != nil {
		return nil, done, firstErr
	}
	var out []byte
	for _, p := range chunks {
		out = append(out, p...)
	}
	return out, count, nil
}

// Close shuts the client down.
func (c *Client) Close() error {
	c.once.Do(func() { close(c.closed) })
	err := c.conn.Close()
	c.wg.Wait()
	return err
}
