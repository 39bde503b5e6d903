package forwarder

import (
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/transport"
)

// gatePKI wraps a pki.Verifier so tests can hold every signature
// verification open: parked jobs stay parked (or in flight) for as long
// as the test needs to observe admission, flushing, and shedding.
type gatePKI struct {
	inner pki.Verifier
	mu    sync.Mutex
	ch    chan struct{} // non-nil while held
}

func (g *gatePKI) hold() {
	g.mu.Lock()
	if g.ch == nil {
		g.ch = make(chan struct{})
	}
	g.mu.Unlock()
}

func (g *gatePKI) release() {
	g.mu.Lock()
	if g.ch != nil {
		close(g.ch)
		g.ch = nil
	}
	g.mu.Unlock()
}

func (g *gatePKI) Verify(locator names.Name, msg, sig []byte) error {
	g.mu.Lock()
	ch := g.ch
	g.mu.Unlock()
	if ch != nil {
		<-ch
	}
	return g.inner.Verify(locator, msg, sig)
}

// vpEnv is a standalone edge forwarder with a gated verifier — enough
// to exercise the verification pool without a core router or producer
// (every tag under test is denied at the edge).
type vpEnv struct {
	t       *testing.T
	fwd     *Forwarder
	gate    *gatePKI
	addr    string
	provKey *pki.ECDSAKeyPair
	rogue   *pki.ECDSAKeyPair
}

func newVPEnv(t *testing.T, workers, budget int) *vpEnv {
	return newVPEnvCfg(t, workers, budget, nil)
}

// newVPEnvCfg additionally lets the caller mutate the edge's Config
// before New (mod may be nil).
func newVPEnvCfg(t *testing.T, workers, budget int, mod func(cfg *Config)) *vpEnv {
	t.Helper()
	provKey, err := pki.GenerateECDSA(rand.Reader, names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	reg := pki.NewRegistry()
	if err := reg.Register(provKey.Locator(), provKey.Public()); err != nil {
		t.Fatal(err)
	}
	rogue, err := pki.GenerateECDSA(rand.Reader, names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	gate := &gatePKI{inner: reg}
	cfg := Config{
		ID: "edge-0", Role: RoleEdge, Registry: reg, Verifier: gate,
		Tactic: core.Config{EdgeValidateOnMiss: true}, Seed: 1,
		VerifyWorkers: workers, VerifyBudget: budget,
	}
	if mod != nil {
		mod(&cfg)
	}
	fwd, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := transport.ListenFace("127.0.0.1:0", transport.UDPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go fwd.ServeFaces(ln) //nolint:errcheck // exits on close
	t.Cleanup(func() {
		gate.release()
		// Every test must leave the pool empty: no job parked, no face
		// charged, no tag still mapped to a leader.
		var idle string
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if idle = poolResidue(fwd.vp); idle == "" || time.Now().After(deadline) {
				break
			}
		}
		if idle != "" {
			t.Errorf("verify pool not empty at test end: %s", idle)
		}
		fwd.Close()
		ln.Close()
	})
	return &vpEnv{t: t, fwd: fwd, gate: gate, addr: ln.Addr().String(), provKey: provKey, rogue: rogue}
}

// poolResidue describes whatever a quiescent pool still holds ("" when
// nothing).
func poolResidue(p *verifyPool) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	groups, faces := p.q.Len()
	if groups == 0 && faces == 0 && p.parked.Load() == 0 {
		return ""
	}
	return fmt.Sprintf("%d leaders, %d charged faces, parked=%d", groups, faces, p.parked.Load())
}

// forgedTag mints a structurally valid tag signed by the rogue key:
// always a BF miss, always a failing verification, distinct per user.
func (e *vpEnv) forgedTag(user string) *core.Tag {
	e.t.Helper()
	tag, err := core.IssueTag(e.rogue, names.MustNew("users", user, "KEY", "1"), 3,
		core.EmptyAccessPath.Accumulate("edge-0"), time.Now().Add(time.Hour))
	if err != nil {
		e.t.Fatal(err)
	}
	return tag
}

func (e *vpEnv) dial() *transport.Conn {
	e.t.Helper()
	raw, err := net.Dial("tcp", e.addr)
	if err != nil {
		e.t.Fatal(err)
	}
	conn := transport.New(raw)
	e.t.Cleanup(func() { conn.Close() })
	return conn
}

// sendForged sends n Interests, each with a distinct forged tag, on
// conn. Nonces are base+1..base+n; user names are salted with base too
// so concurrent calls never share a tag.
func (e *vpEnv) sendForged(conn *transport.Conn, base uint64, n int) {
	e.t.Helper()
	for k := 1; k <= n; k++ {
		if err := conn.SendInterest(&ndn.Interest{
			Name:  names.MustParse("/prov0/x/chunk0"),
			Kind:  ndn.KindContent,
			Nonce: base + uint64(k),
			Tag:   e.forgedTag(fmt.Sprintf("u%d-%d", base, k)),
		}); err != nil {
			e.t.Fatal(err)
		}
	}
}

// collectNACKs reads n Data frames off conn, all of which must be NACKs,
// and tallies them by reason label.
func (e *vpEnv) collectNACKs(conn *transport.Conn, n int) map[string]int {
	e.t.Helper()
	got := e.collectReplies(conn, n)
	if got["content"] != 0 {
		e.t.Fatalf("replies = %v, want only NACKs", got)
	}
	return got
}

// collectReplies reads n Data frames off conn and tallies them: a NACK
// under its reason label, anything else under "content".
func (e *vpEnv) collectReplies(conn *transport.Conn, n int) map[string]int {
	e.t.Helper()
	got := make(map[string]int)
	for k := 0; k < n; k++ {
		var pkt transport.Packet
		var err error
		for {
			pkt, err = conn.Receive()
			if err != nil {
				e.t.Fatalf("receive %d/%d: %v", k+1, n, err)
			}
			if pkt.Data != nil {
				break
			}
			// Skip control-plane frames (e.g. revocation pushes).
		}
		if !pkt.Data.Nack {
			if pkt.Data.Content == nil {
				e.t.Fatalf("response %d is neither a NACK nor content: %+v", k+1, pkt)
			}
			got["content"]++
			continue
		}
		got[core.ReasonLabel(pkt.Data.NackReason)]++
	}
	return got
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestVerifyPoolShedsAtBudget holds every verification open and sends
// budget+3 distinct unverified tags on one face: exactly 3 must shed
// immediately with Overload NACKs, and the admitted ones must deliver
// forged NACKs once the verifier is released.
func TestVerifyPoolShedsAtBudget(t *testing.T) {
	const budget = 4
	e := newVPEnv(t, 2, budget)
	e.gate.hold()
	conn := e.dial()

	e.sendForged(conn, 0, budget+3)
	// The sheds answer synchronously on the reader; the admitted jobs
	// are stuck behind the gate.
	got := e.collectNACKs(conn, 3)
	if got["overload"] != 3 {
		t.Fatalf("shed NACKs = %v, want 3 overload", got)
	}
	if sheds := e.fwd.Stats().VerifySheds; sheds != 3 {
		t.Fatalf("VerifySheds = %d, want 3", sheds)
	}

	e.gate.release()
	got = e.collectNACKs(conn, budget)
	if got["forged"] != budget {
		t.Fatalf("admitted NACKs = %v, want %d forged", got, budget)
	}
	waitFor(t, "pool to drain", func() bool { return e.fwd.vp.Parked() == 0 })
}

// TestVerifyPoolPerFaceBudget floods one face past its budget while a
// second face stays within its own: the budget is per arrival face, so
// the well-behaved face must not be shed.
func TestVerifyPoolPerFaceBudget(t *testing.T) {
	const budget = 4
	e := newVPEnv(t, 1, budget)
	e.gate.hold()
	flood := e.dial()
	victim := e.dial()

	e.sendForged(flood, 0, budget+2)
	got := e.collectNACKs(flood, 2)
	if got["overload"] != 2 {
		t.Fatalf("flood sheds = %v, want 2 overload", got)
	}
	// The victim's tags park under its own budget — no shed.
	e.sendForged(victim, 1000, budget)
	e.gate.release()
	got = e.collectNACKs(victim, budget)
	if got["forged"] != budget {
		t.Fatalf("victim NACKs = %v, want %d forged (no overload)", got, budget)
	}
}

// TestVerifyPoolFlushOnFaceDeath parks jobs behind a held verifier and
// kills the face: the parked jobs must be flushed (counted under
// VerifyFlushed) instead of leaking until shutdown.
func TestVerifyPoolFlushOnFaceDeath(t *testing.T) {
	e := newVPEnv(t, 1, 8)
	e.gate.hold()
	conn := e.dial()

	// One job goes in flight (1 worker, gated); the rest park.
	e.sendForged(conn, 0, 4)
	waitFor(t, "jobs to park", func() bool { return e.fwd.vp.Parked() == 3 })

	conn.Close()
	waitFor(t, "face death to flush parked jobs", func() bool {
		return e.fwd.Stats().VerifyFlushed == 3
	})
	e.gate.release()
	waitFor(t, "in-flight job to retire", func() bool { return e.fwd.vp.Parked() == 0 })
}

// TestVerifyPoolFlushOnRevocation parks jobs for two clients and
// revokes one of their tags mid-park: the revoked client's parked jobs
// must be flushed with revoked NACKs while the other's still verify.
func TestVerifyPoolFlushOnRevocation(t *testing.T) {
	e := newVPEnv(t, 1, 8)
	e.gate.hold()
	conn := e.dial()

	// Park one in-flight sacrificial job first so the interesting ones
	// stay in the parked state the flush targets.
	blocker := e.forgedTag("blocker")
	if err := conn.SendInterest(&ndn.Interest{
		Name: names.MustParse("/prov0/x/chunk0"), Kind: ndn.KindContent, Nonce: 1, Tag: blocker,
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "blocker in flight", func() bool { return e.fwd.vp.Parked() == 0 && e.fwd.Stats().VerifyFlushed == 0 })

	doomed := e.forgedTag("doomed")
	kept := e.forgedTag("kept")
	for nonce, tag := range map[uint64]*core.Tag{2: doomed, 3: kept} {
		if err := conn.SendInterest(&ndn.Interest{
			Name: names.MustParse("/prov0/x/chunk0"), Kind: ndn.KindContent, Nonce: nonce, Tag: tag,
		}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "jobs to park", func() bool { return e.fwd.vp.Parked() == 2 })

	if !e.fwd.ApplyRevocation(1, []core.TagID{doomed.ID()}) {
		t.Fatal("revocation push rejected")
	}
	waitFor(t, "revocation to flush the doomed job", func() bool {
		return e.fwd.Stats().VerifyFlushed == 1
	})
	e.gate.release()

	got := e.collectNACKs(conn, 3)
	if got["revoked"] != 1 {
		t.Fatalf("NACK reasons = %v, want 1 revoked", got)
	}
	if got["forged"] != 2 { // blocker + kept still verified normally
		t.Fatalf("NACK reasons = %v, want 2 forged", got)
	}
}

// TestVerifyPoolFlushOnShutdown parks jobs and closes the forwarder:
// the in-flight verification delivers its verdict, and every
// still-parked job is flushed with an Overload NACK while the face can
// still carry it.
func TestVerifyPoolFlushOnShutdown(t *testing.T) {
	e := newVPEnv(t, 1, 8)
	e.gate.hold()
	conn := e.dial()

	e.sendForged(conn, 0, 4)
	waitFor(t, "jobs to park", func() bool { return e.fwd.vp.Parked() == 3 })

	closed := make(chan struct{})
	go func() { e.fwd.Close(); close(closed) }()
	// Close drains the workers first, so it cannot finish until the
	// gated in-flight verification is released — assert it is still
	// blocked, rather than sleeping and hoping it got stuck in time.
	select {
	case <-closed:
		t.Fatal("Close returned while a verification was still gated")
	case <-time.After(20 * time.Millisecond):
	}
	e.gate.release()
	<-closed

	got := e.collectNACKs(conn, 4)
	if got["forged"] != 1 || got["overload"] != 3 {
		t.Fatalf("NACK reasons = %v, want 1 forged + 3 overload", got)
	}
	if flushed := e.fwd.Stats().VerifyFlushed; flushed != 3 {
		t.Fatalf("VerifyFlushed = %d, want 3", flushed)
	}
}

// TestVerifyPoolReaderNotBlocked is the tentpole property: with every
// verification gated shut and unverified tags parked, the same face's
// reader must still serve the cheap path — a request for cached public
// content — immediately. Before the pool, the reader would be wedged
// inside the signature check.
func TestVerifyPoolReaderNotBlocked(t *testing.T) {
	e := newVPEnv(t, 1, 8)

	// Publish public content straight into the edge CS.
	rng := rand.Reader
	provider, err := core.NewProvider(names.MustParse("/prov0"), e.provKey, time.Minute, rng)
	if err != nil {
		t.Fatal(err)
	}
	content, err := provider.Publish(names.MustParse("/prov0/open/chunk0"), core.Public, []byte("public info"))
	if err != nil {
		t.Fatal(err)
	}
	e.fwd.cs.Insert(content)

	e.gate.hold()
	conn := e.dial()
	e.sendForged(conn, 0, 4)
	waitFor(t, "jobs to park", func() bool { return e.fwd.vp.Parked() == 3 })

	// The verifier is still gated; only the async pool keeps this from
	// hanging until the test timeout.
	if err := conn.SendInterest(&ndn.Interest{
		Name: names.MustParse("/prov0/open/chunk0"), Kind: ndn.KindContent, Nonce: 99,
	}); err != nil {
		t.Fatal(err)
	}
	pkt, err := conn.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if pkt.Data == nil || pkt.Data.Nack || pkt.Data.Content == nil {
		t.Fatalf("cheap path starved behind parked verifications: %+v", pkt)
	}
	if string(pkt.Data.Content.Payload) != "public info" {
		t.Fatalf("payload = %q", pkt.Data.Content.Payload)
	}
	e.gate.release()
	if got := e.collectNACKs(conn, 4); got["forged"] != 4 {
		t.Fatalf("parked verdicts = %v, want 4 forged", got)
	}
}

// TestVerifyPoolRoundRobinFairness runs one worker over two faces with
// asymmetric backlogs: the busy face must not starve the light face —
// round-robin means the light face's single job completes within the
// first two dequeues, not after the busy face's whole backlog.
func TestVerifyPoolRoundRobinFairness(t *testing.T) {
	e := newVPEnv(t, 1, 16)
	e.gate.hold()
	busy := e.dial()
	light := e.dial()

	e.sendForged(busy, 0, 8)
	waitFor(t, "busy backlog to park", func() bool { return e.fwd.vp.Parked() == 7 })
	e.sendForged(light, 1000, 1)
	waitFor(t, "light job to park", func() bool { return e.fwd.vp.Parked() == 8 })

	e.gate.release()
	// The light face's verdict must arrive promptly even though the
	// busy face enqueued first; a FIFO pool would deliver it last.
	deadline := time.Now().Add(2 * time.Second)
	done := make(chan error, 1)
	go func() {
		pkt, err := light.Receive()
		if err == nil && (pkt.Data == nil || !pkt.Data.Nack) {
			err = errors.New("light face got a non-NACK")
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Until(deadline)):
		t.Fatal("light face starved behind the busy face's backlog")
	}
	if got := e.collectNACKs(busy, 8); got["forged"] != 8 {
		t.Fatalf("busy verdicts = %v, want 8 forged", got)
	}
}
