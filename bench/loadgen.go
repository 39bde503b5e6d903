package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/transport"
)

// opTimeout fails an operation whose reply does not arrive. There are no
// retransmissions: on loopback a lost packet is a defect worth counting.
const opTimeout = 2 * time.Second

// opCounts tallies one phase's operations on one connection (or, summed,
// on all of them).
type opCounts struct {
	ops    uint64 // operations that ended: replied to, or timed out
	failed uint64 // of those, the ones without the expected, verified outcome

	timeouts     uint64 // no reply within opTimeout
	badNACK      uint64 // a genuine tag NACKed, or a forged one NACKed for another reason
	mismatch     uint64 // a reply whose content name or payload digest is not what was published
	forgedLeaked uint64 // a forged tag served: a Bloom-filter false positive, good up to the filter's rate
	stray        uint64 // replies matching no outstanding Interest (not operations)

	forgedSent  uint64
	needsVerify uint64 // operations whose tag the edge could not have had in its filter
}

func (a *opCounts) add(b opCounts) {
	a.ops += b.ops
	a.failed += b.failed
	a.timeouts += b.timeouts
	a.badNACK += b.badNACK
	a.mismatch += b.mismatch
	a.forgedLeaked += b.forgedLeaked
	a.stray += b.stray
	a.forgedSent += b.forgedSent
	a.needsVerify += b.needsVerify
}

// slot is the outstanding Interest for one chunk name on one connection.
type slot struct {
	sent   time.Time
	op     uint64
	active bool
	forged bool
	traced bool
}

// conn drives one load connection: a raw transport.Face multiplexing many
// subscribers' tags, as an access point in front of many users would. One
// goroutine sends and receives, so the loop is closed: a new Interest
// leaves only when a reply (or a time-out) frees a place in the window.
type conn struct {
	id    int
	face  transport.Face
	w     *world
	sched *connSchedule

	pending     []slot // by chunk number
	outstanding int
	peeked      request
	havePeek    bool
	interest    ndn.Interest // reused: SendInterest encodes before it returns
	ops         uint64       // operations started, ever: the operation ID and the nonce

	counts opCounts
	lat    []uint32 // latency of each good operation, ns
	// learning makes replies authenticate and record chunk digests instead
	// of being checked against them (the warm step).
	learning bool

	spans   *spanLog    // nil unless traced
	capture []*ndn.Data // first replies of a traced phase, for the replay
}

// latPerSecond sizes the latency buffers: more operations per second than
// one connection can complete, so recording never allocates inside a
// timed phase.
const latPerSecond = 150_000

// traceEvery is the share of operations a traced connection records spans
// for and marks sampled on the wire.
const traceEvery = 16

// captureCap bounds the replies a traced connection keeps for the replay.
const captureCap = 8192

func (c *conn) peek() request {
	if !c.havePeek {
		c.peeked = c.sched.next()
		c.havePeek = true
	}
	return c.peeked
}

// fill sends up to budget Interests (any number when budget is negative)
// until the window is full, and returns how many it sent. It never sends a
// name that is still outstanding on this connection: replies are matched
// by name, so it waits for that reply instead.
func (c *conn) fill(window, budget int) (int, error) {
	sent := 0
	for c.outstanding < window && sent != budget {
		req := c.peek()
		s := &c.pending[req.name]
		if s.active {
			break
		}
		c.havePeek = false
		if err := c.send(req, s); err != nil {
			return sent, err
		}
		sent++
	}
	return sent, nil
}

func (c *conn) send(req request, s *slot) error {
	c.ops++
	tag := c.w.tags[req.tag]
	if req.forged {
		tag = c.w.forge(req.tag, uint64(c.id)<<56|c.ops)
		c.counts.forgedSent++
	}
	if req.needsVerify {
		c.counts.needsVerify++
	}
	c.interest = ndn.Interest{
		Name:  c.w.names[req.name],
		Kind:  ndn.KindContent,
		Nonce: uint64(c.id+1)<<48 | c.ops,
		Tag:   tag,
	}
	*s = slot{op: c.ops, active: true, forged: req.forged}
	if c.spans != nil && c.ops%traceEvery == 0 {
		s.traced = true
		id := c.spans.opID(c.id+1, c.ops)
		c.interest.Trace = ndn.TraceContext{TraceID: id, ParentID: id, Sampled: true, Hops: 1}
	}
	s.sent = time.Now()
	if err := c.face.SendInterest(&c.interest); err != nil {
		return fmt.Errorf("connection %d: send: %w", c.id, err)
	}
	if s.traced {
		c.spans.add(c.id+1, s.op, "encode_send", s.sent, time.Now())
	}
	c.outstanding++
	return nil
}

// isTimeout reports a Receive that gave up after the idle time-out, on a
// stream or a datagram face.
func isTimeout(err error) bool {
	return errors.Is(err, os.ErrDeadlineExceeded) || errors.Is(err, transport.ErrIdleTimeout)
}

// receive takes one reply off the wire, matches it by name and checks it.
// Nothing arriving for opTimeout fails every outstanding operation: each
// was sent before the silence began.
func (c *conn) receive() (time.Time, error) {
	var start time.Time
	if c.spans != nil {
		start = time.Now()
	}
	pkt, err := c.face.Receive()
	now := time.Now()
	if err != nil {
		if !isTimeout(err) {
			return now, fmt.Errorf("connection %d: receive: %w", c.id, err)
		}
		for i := range c.pending {
			if c.pending[i].active {
				c.pending[i].active = false
				c.counts.ops++
				c.counts.failed++
				c.counts.timeouts++
			}
		}
		c.outstanding = 0
		return now, nil
	}
	d := pkt.Data
	if d == nil {
		c.counts.stray++
		return now, nil
	}
	chunk, ok := c.w.nameIndex[d.Name.Key()]
	if !ok || !c.pending[chunk].active {
		c.counts.stray++
		return now, nil
	}
	s := &c.pending[chunk]
	s.active = false
	c.outstanding--
	c.counts.ops++
	good := c.check(d, chunk, s.forged)
	if good {
		c.lat = append(c.lat, uint32(min(now.Sub(s.sent), time.Duration(^uint32(0)))))
	} else {
		c.counts.failed++
	}
	if s.traced {
		done := time.Now()
		c.spans.add(c.id+1, s.op, "receive_decode", start, now)
		c.spans.add(c.id+1, s.op, "match_check", now, done)
		c.spans.addRoot(c.id+1, s.op, s.sent, done, good)
	}
	if c.spans != nil && len(c.capture) < captureCap {
		c.capture = append(c.capture, d)
	}
	return now, nil
}

// check verifies one matched reply: the NACK flag and reason, the content
// name, and the SHA-256 of the ciphertext against the published chunk.
func (c *conn) check(d *ndn.Data, chunk int, forged bool) bool {
	if forged {
		switch {
		case !d.Nack:
			c.counts.forgedLeaked++ // judged in bulk, against the filter's false-positive rate
		case !errors.Is(d.NackReason, core.ErrTagForged):
			c.counts.badNACK++
			return false
		}
		return true
	}
	content := d.Content
	if d.Nack || content == nil {
		c.counts.badNACK++
		return false
	}
	if content.Meta.Name.Key() != c.w.names[chunk].Key() {
		c.counts.mismatch++
		return false
	}
	if c.learning && !c.w.known[chunk] {
		if err := c.w.learn(chunk, content); err != nil {
			c.counts.mismatch++
			return false
		}
		return true
	}
	if !c.w.known[chunk] || sha256.Sum256(content.Payload) != c.w.digests[chunk] {
		c.counts.mismatch++
		return false
	}
	return true
}

// drive runs the closed loop with the given window until the deadline
// or, when limit is positive, until limit Interests have been sent; then
// it waits for what is still outstanding.
func (c *conn) drive(window int, deadline time.Time, limit int) error {
	now := time.Now()
	for sent := 0; (limit <= 0 && now.Before(deadline)) || sent < limit; {
		budget := -1
		if limit > 0 {
			budget = limit - sent
		}
		n, err := c.fill(window, budget)
		if err != nil {
			return err
		}
		sent += n
		if now, err = c.receive(); err != nil {
			return err
		}
	}
	for c.outstanding > 0 {
		if _, err := c.receive(); err != nil {
			return err
		}
	}
	return nil
}

// loadgen owns the connections of one rig.
type loadgen struct {
	r     *rig
	plan  *plan
	conns []*conn
}

func newLoadgen(r *rig, p *plan) *loadgen {
	lg := &loadgen{r: r, plan: p}
	for i, face := range r.faces {
		lg.conns = append(lg.conns, &conn{
			id: i, face: face, w: r.w, sched: p.conns[i],
			pending: make([]slot, chunkCount),
		})
	}
	return lg
}

// each runs fn on every connection concurrently and returns the first
// error.
func (lg *loadgen) each(fn func(*conn) error) error {
	errs := make([]error, len(lg.conns))
	var wg sync.WaitGroup
	for i, c := range lg.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(c)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// warm fetches every name of the workload once, over the connection that
// will request it and with that connection's tags in turn, so the content
// stores and (through the replies) the edge filter hold what the timed
// phases rely on. Readiness is established by the replies: every one must
// authenticate, which also records the digests later replies are checked
// against.
func (lg *loadgen) warm() error {
	err := lg.each(func(c *conn) error {
		warm := &connSchedule{names: c.sched.names, tags: c.sched.tags[:min(len(c.sched.tags), hotTags)], tagRun: 1}
		timed := c.sched
		c.sched, c.learning = warm, true
		err := c.drive(loadedWindow, time.Time{}, len(warm.names))
		c.sched, c.learning = timed, false
		return err
	})
	if err != nil {
		return err
	}
	var total opCounts
	for _, c := range lg.conns {
		total.add(c.counts)
		c.counts = opCounts{}
		c.lat = c.lat[:0]
	}
	if total.failed > 0 || int(total.ops) != len(lg.plan.names) {
		return fmt.Errorf("%d of %d warm fetches failed (%+v)", total.failed, len(lg.plan.names), total)
	}
	return nil
}

// phase drives every connection with the given window for d and returns
// the summed counts and the merged latencies of the good operations.
func (lg *loadgen) phase(window int, d time.Duration) (opCounts, []uint32, error) {
	for _, c := range lg.conns {
		c.counts = opCounts{}
		c.lat = c.lat[:0]
		if need := int(d.Seconds()*latPerSecond) + 1; cap(c.lat) < need {
			c.lat = make([]uint32, 0, need)
		}
	}
	deadline := time.Now().Add(d)
	if err := lg.each(func(c *conn) error { return c.drive(window, deadline, 0) }); err != nil {
		return opCounts{}, nil, err
	}
	var total opCounts
	var lat []uint32
	for _, c := range lg.conns {
		total.add(c.counts)
		lat = append(lat, c.lat...)
	}
	return total, lat, nil
}
