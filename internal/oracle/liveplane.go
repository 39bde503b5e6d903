package oracle

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/forwarder"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/topology"
	"github.com/tactic-icn/tactic/internal/transport"
)

// ErrTimingSkew reports that the live plane could not keep a mid-run
// tag's real-time expiry window: a pre-boundary step finished after the
// tag's T_e, so its verdicts may already reflect the expired state.
// The run is invalid rather than divergent — callers retry once.
var ErrTimingSkew = errors.New("oracle: live plane missed a mid-run expiry window")

// Live-plane timing. Unlike the sim plane the live plane runs on wall
// clock, so a mid-run tag's TTL must outlast every pre-boundary step.
// Every request is answered — content or an explicit NACK — so a step
// lasts a few round trips; a client that reaches its deadline has seen
// a denial go silent, which the harness reports as a divergence.
const (
	liveCSCapacity     = 1024
	liveRequestTimeout = 600 * time.Millisecond
	// liveStepBudget bounds one step's wall-clock: a few round trips and
	// verifications, plus scheduling slack under the race detector.
	liveStepBudget = 200 * time.Millisecond
	// liveExpiryMargin separates the boundary step from T_e so that
	// "expired" is unambiguous when it runs.
	liveExpiryMargin = 250 * time.Millisecond
)

// liveMidRunTTL is the wall-clock lifetime of mid-run tags for a
// scenario: enough for every pre-boundary step to finish first.
func liveMidRunTTL(scn *Scenario) time.Duration {
	return time.Duration(scn.Boundary)*liveStepBudget + liveExpiryMargin
}

// gatedVerifier wraps a pki.Verifier with a hold/release gate. During
// the flood burst the gate is held, so every admitted verification
// stays in flight — occupying its face's admission budget — until the
// whole burst has been read off the wire; releasing then lets the
// verdicts land. This removes the only timing freedom in the burst
// (how fast workers drain relative to the reader), making the live
// shed/verify split a pure function of arrival order.
type gatedVerifier struct {
	inner pki.Verifier
	mu    sync.Mutex
	gate  chan struct{} // nil = open; else closed-on-release
}

func newGatedVerifier(inner pki.Verifier) *gatedVerifier {
	return &gatedVerifier{inner: inner}
}

func (g *gatedVerifier) Verify(locator names.Name, msg, sig []byte) error {
	g.mu.Lock()
	ch := g.gate
	g.mu.Unlock()
	if ch != nil {
		<-ch
	}
	return g.inner.Verify(locator, msg, sig)
}

// hold blocks future Verify calls until release; idempotent.
func (g *gatedVerifier) hold() {
	g.mu.Lock()
	if g.gate == nil {
		g.gate = make(chan struct{})
	}
	g.mu.Unlock()
}

// release unblocks held Verify calls; idempotent.
func (g *gatedVerifier) release() {
	g.mu.Lock()
	if g.gate != nil {
		close(g.gate)
		g.gate = nil
	}
	g.mu.Unlock()
}

// RunLive replays a scenario on the live plane: one forwarder.Forwarder
// per router and one forwarder.Producer per provider, wired into the
// scenario topology over in-process TCP links (TCP buffering keeps
// router-to-router writes from back-pressuring each other's read
// loops), with one client connection per request. Steps run
// sequentially; requests within a step run concurrently so PIT
// aggregation genuinely occurs.
func RunLive(scn *Scenario, info *topoInfo, tactic core.Config) (*PlaneResult, error) {
	hasMidRun := false
	for _, t := range scn.Tags {
		if t.Kind == TagMidRun {
			hasMidRun = true
		}
	}
	t0 := time.Now()
	expiry := t0.Add(liveMidRunTTL(scn))
	mat, err := buildMaterial(scn,
		info,
		func(t TagSpec) time.Time {
			switch t.Kind {
			case TagPreExpired:
				return t0.Add(-time.Second)
			case TagMidRun:
				return expiry
			}
			return t0.Add(time.Hour)
		},
		func(edgePos int) core.AccessPath {
			// The live first-hop entity is the edge router itself.
			return core.EmptyAccessPath.Accumulate(info.edgeID[edgePos])
		})
	if err != nil {
		return nil, err
	}

	var closers []io.Closer
	defer func() {
		for _, c := range closers {
			c.Close()
		}
	}()

	var gate *gatedVerifier
	var floodBudget int
	if scn.Flood != nil {
		gate = newGatedVerifier(mat.registry)
		floodBudget = scn.Flood.Budget
	}
	fwds := make(map[int]*forwarder.Forwarder)
	newFwd := func(idx int, role forwarder.Role) error {
		seed := scn.Seed*1009 + int64(idx) + 1
		if seed == 0 {
			seed = 1
		}
		var verifier pki.Verifier
		if gate != nil {
			verifier = gate
		}
		f, err := forwarder.New(forwarder.Config{
			ID:           info.nodeID(idx),
			Role:         role,
			Registry:     mat.registry,
			Verifier:     verifier,
			VerifyBudget: floodBudget,
			CSCapacity:   liveCSCapacity,
			Tactic:       tactic,
			Seed:         seed,
			Logf:         func(string, ...any) {},
		})
		if err != nil {
			return err
		}
		fwds[idx] = f
		closers = append(closers, f)
		return nil
	}
	for _, idx := range info.cores {
		if err := newFwd(idx, forwarder.RoleCore); err != nil {
			return nil, err
		}
	}
	for _, idx := range info.edges {
		if err := newFwd(idx, forwarder.RoleEdge); err != nil {
			return nil, err
		}
	}

	isRouter := func(idx int) bool {
		k := info.g.Nodes[idx].Kind
		return k == topology.KindCoreRouter || k == topology.KindEdgeRouter
	}
	// Router-to-router links, upstream (non-client) faces on both sides.
	faceOf := make(map[int]map[int]ndn.FaceID)
	face := func(a, b int, id ndn.FaceID) {
		if faceOf[a] == nil {
			faceOf[a] = make(map[int]ndn.FaceID)
		}
		faceOf[a][b] = id
	}
	for idx := range fwds {
		for _, nb := range info.g.Adj[idx] {
			if nb.Node <= idx || !isRouter(nb.Node) {
				continue
			}
			ca, cb, err := tcpPair()
			if err != nil {
				return nil, err
			}
			face(idx, nb.Node, fwds[idx].AddFace(transport.New(ca), false))
			face(nb.Node, idx, fwds[nb.Node].AddFace(transport.New(cb), false))
		}
	}
	// Producers, attached to their single neighbouring router.
	for p, idx := range info.providers {
		prod, err := forwarder.NewProducerWithConfig(mat.providers[p],
			forwarder.Config{Registry: mat.registry, Tactic: tactic, WriteTimeout: forwarder.DefaultWriteTimeout})
		if err != nil {
			return nil, err
		}
		closers = append(closers, prod)
		for ci, c := range scn.Contents {
			if c.Provider == p {
				prod.AddContent(mat.contents[ci])
			}
		}
		attached := false
		for _, nb := range info.g.Adj[idx] {
			if !isRouter(nb.Node) {
				continue
			}
			ca, cb, err := tcpPair()
			if err != nil {
				return nil, err
			}
			face(nb.Node, idx, fwds[nb.Node].AddFace(transport.New(ca), false))
			prod.ServeConn(cb)
			attached = true
		}
		if !attached {
			return nil, fmt.Errorf("oracle: provider %d has no router neighbour", p)
		}
	}
	// Routes follow each provider's BFS tree, like the other planes.
	for p := range info.providers {
		prefix := info.provPrefix(p)
		for idx, f := range fwds {
			next := info.parent[p][idx]
			if next < 0 {
				continue
			}
			id, ok := faceOf[idx][next]
			if !ok {
				return nil, fmt.Errorf("oracle: no face %s->%s", info.nodeID(idx), info.nodeID(next))
			}
			f.AddRoute(prefix, id)
		}
	}

	// Seed the scenario's revocation set at every forwarder before the
	// first request: each applies v1 before the call returns, so the seed
	// is in place deterministically, and the copies its flood delivers are
	// stale no-ops (the flood protocol itself is pinned by
	// internal/forwarder's live control-plane tests).
	if len(mat.revoked) > 0 {
		for _, f := range fwds {
			f.ApplyRevocation(1, mat.revoked)
		}
	}

	outcomes := make([]PlaneOutcome, len(scn.Requests))
	var nonce uint64
	slept := false
	for lo := 0; lo < len(scn.Requests); {
		hi := lo
		step := scn.Requests[lo].Step
		for hi < len(scn.Requests) && scn.Requests[hi].Step == step {
			hi++
		}
		if hasMidRun && step >= scn.Boundary && !slept {
			// Cross the expiry boundary unambiguously before the first
			// post-boundary step.
			time.Sleep(time.Until(expiry.Add(liveExpiryMargin)))
			slept = true
		}
		if scn.Flood != nil && step == scn.Flood.Step {
			if err := liveFlood(scn, info, mat, fwds, gate, outcomes, lo, hi, &nonce); err != nil {
				return nil, err
			}
			lo = hi
			continue
		}
		var wg sync.WaitGroup
		var mu sync.Mutex
		var lastMidRun time.Time
		for ri := lo; ri < hi; ri++ {
			r := scn.Requests[ri]
			nonce++
			wg.Add(1)
			go func(ri int, r RequestSpec, n uint64) {
				defer wg.Done()
				outcomes[ri] = liveRequest(info, mat, fwds, scn, r, n)
				if hasMidRun && step < scn.Boundary && r.Tag >= 0 && scn.Tags[r.Tag].Kind == TagMidRun {
					// Enforcement precedes the client's completion, so
					// completing before T_e proves the tag was checked
					// while still valid.
					mu.Lock()
					if done := time.Now(); done.After(lastMidRun) {
						lastMidRun = done
					}
					mu.Unlock()
				}
			}(ri, r, nonce)
		}
		wg.Wait()
		if !lastMidRun.IsZero() && lastMidRun.After(expiry.Add(-50*time.Millisecond)) {
			return nil, ErrTimingSkew
		}
		lo = hi
	}

	res := &PlaneResult{Outcomes: outcomes, CS: make(map[string][]string)}
	for idx, f := range fwds {
		names := f.CSNames()
		sort.Strings(names)
		res.CS[info.nodeID(idx)] = names
	}
	return res, nil
}

// liveRequest issues one Interest from a fresh client connection on the
// user's edge router and reports what comes back: content, even
// alongside a NACK, counts as delivered, since the client holds it.
// Silence until the deadline reports neither.
func liveRequest(info *topoInfo, mat *material, fwds map[int]*forwarder.Forwarder, scn *Scenario, r RequestSpec, nonce uint64) PlaneOutcome {
	edge := fwds[info.edges[info.userEdge[r.User]]]
	cliConn, edgeConn := net.Pipe()
	edge.AddFace(transport.New(edgeConn), true)
	cli := transport.New(cliConn)
	defer cli.Close()

	name := info.contentName(scn, r.Content)
	var tag *core.Tag
	if r.Tag >= 0 {
		tag = mat.tags[r.Tag]
	}
	if err := cli.SendInterest(&ndn.Interest{Name: name, Kind: ndn.KindContent, Nonce: nonce, Tag: tag}); err != nil {
		return PlaneOutcome{}
	}
	cliConn.SetReadDeadline(time.Now().Add(liveRequestTimeout)) //nolint:errcheck // pipes support deadlines
	for {
		pkt, err := cli.Receive()
		if err != nil {
			return PlaneOutcome{} // timed out
		}
		d := pkt.Data
		if d == nil || !d.Name.Equal(name) {
			continue
		}
		if d.Nack || d.Content != nil {
			// The reason crosses the wire as a one-byte code; report its
			// canonical label for the edge-denial comparison.
			return PlaneOutcome{Delivered: d.Content != nil, Nacked: d.Nack, Reason: core.ReasonLabel(d.NackReason)}
		}
	}
}

// liveFlood replays the burst step of a flood scenario: every request
// in [lo, hi) is sent back-to-back on ONE client connection — the
// admission budget is per arrival face, so the burst must share one —
// while the verify gate is held. Once the edge has decided admission for
// the whole burst — parked, in flight (held at the gate) and shed have
// together advanced by the burst size, which holds whether or not
// admission is enforced, the property that lets the harness catch an
// uncapped plane rather than hang on it — the gate opens and the burst's
// verdicts are collected: admitted forged tags NACK "forged", over-budget
// ones were already shed "overload". (The edge's Interest counter is no
// such signal: it counts an Interest before admission, so a verdict let
// through on it could free a slot the burst's last Interest then takes.)
func liveFlood(scn *Scenario, info *topoInfo, mat *material, fwds map[int]*forwarder.Forwarder,
	gate *gatedVerifier, outcomes []PlaneOutcome, lo, hi int, nonce *uint64) error {
	edge := fwds[info.edges[info.userEdge[scn.Flood.User]]]
	// decided counts the burst Interests admission has settled: parked,
	// in a worker's verification, or shed.
	decided := func() int64 {
		st := edge.Status()
		return st.VerifyPool.Parked + edge.Tactic().Validator().InFlight() + int64(st.VerifyPool.Sheds)
	}
	before := decided()
	burst := int64(hi - lo)

	// TCP, not net.Pipe: the shed NACKs are written by the edge's reader
	// goroutine before the client starts reading, and the socket buffers
	// absorb them where a synchronous pipe would deadlock the reader.
	cliConn, edgeConn, err := tcpPair()
	if err != nil {
		return err
	}
	edge.AddFace(transport.New(edgeConn), true)
	cli := transport.New(cliConn)
	defer cli.Close()

	gate.hold()
	defer gate.release()
	byTag := make(map[string]int, hi-lo)
	for ri := lo; ri < hi; ri++ {
		r := scn.Requests[ri]
		if r.User != scn.Flood.User {
			return fmt.Errorf("oracle: flood step %d holds a non-flood request %d", scn.Flood.Step, ri)
		}
		*nonce++
		tag := mat.tags[r.Tag]
		byTag[string(tag.CacheKey())] = ri
		if err := cli.SendInterest(&ndn.Interest{
			Name: info.contentName(scn, r.Content), Kind: ndn.KindContent, Nonce: *nonce, Tag: tag,
		}); err != nil {
			return err
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for decided()-before < burst {
		if time.Now().After(deadline) {
			return fmt.Errorf("oracle: edge decided admission for %d of %d burst Interests before deadline",
				decided()-before, burst)
		}
		time.Sleep(time.Millisecond)
	}
	gate.release()

	cliConn.SetReadDeadline(time.Now().Add(liveRequestTimeout)) //nolint:errcheck // TCP conns support deadlines
	for got := 0; got < int(burst); {
		pkt, err := cli.Receive()
		if err != nil {
			return fmt.Errorf("oracle: flood burst verdicts: got %d of %d: %w", got, burst, err)
		}
		d := pkt.Data
		if d == nil || d.Tag == nil {
			continue
		}
		ri, ok := byTag[string(d.Tag.CacheKey())]
		if !ok {
			continue // duplicate delivery for an already-settled tag
		}
		delete(byTag, string(d.Tag.CacheKey()))
		outcomes[ri] = PlaneOutcome{Delivered: d.Content != nil, Nacked: d.Nack, Reason: core.ReasonLabel(d.NackReason)}
		got++
	}
	return nil
}

// tcpPair returns the two ends of a loopback TCP connection. The live
// harness links routers over TCP rather than net.Pipe: pipe writes are
// synchronous, so two routers replying to each other across one link at
// the same moment would deadlock their read loops, while TCP's socket
// buffers absorb frames.
func tcpPair() (net.Conn, net.Conn, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	type dialRes struct {
		c   net.Conn
		err error
	}
	ch := make(chan dialRes, 1)
	go func() {
		c, err := net.Dial("tcp", ln.Addr().String())
		ch <- dialRes{c, err}
	}()
	srv, err := ln.Accept()
	if err != nil {
		return nil, nil, err
	}
	d := <-ch
	if d.err != nil {
		srv.Close()
		return nil, nil, d.err
	}
	return srv, d.c, nil
}
