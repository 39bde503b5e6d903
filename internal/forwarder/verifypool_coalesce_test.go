package forwarder

import (
	"crypto/rand"
	"io"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/obs"
	"github.com/tactic-icn/tactic/internal/transport"
)

// Group lifecycle of the verify pool: Interests carrying one tag share
// one verification, and no flush, shed or face death may orphan a
// follower or leak the tag's key. Every test ends with newVPEnv's
// cleanup asserting the pool is empty.

var vpName = names.MustParse("/prov0/x/chunk0")

// validTag issues a tag the edge will accept: signed by the trusted
// provider and bound to the edge's access path.
func (e *vpEnv) validTag(user string) *core.Tag {
	e.t.Helper()
	tag, err := core.IssueTag(e.provKey, names.MustNew("users", user, "KEY", "1"), 3,
		core.EmptyAccessPath.Accumulate("edge-0"), time.Now().Add(time.Hour))
	if err != nil {
		e.t.Fatal(err)
	}
	return tag
}

// warmProtected publishes level-2 content under vpName straight into
// the edge's content store.
func (e *vpEnv) warmProtected() {
	e.t.Helper()
	provider, err := core.NewProvider(names.MustParse("/prov0"), e.provKey, time.Minute, rand.Reader)
	if err != nil {
		e.t.Fatal(err)
	}
	content, err := provider.Publish(vpName, 2, []byte("members only"))
	if err != nil {
		e.t.Fatal(err)
	}
	e.fwd.cs.Insert(content)
}

// sendTag sends n Interests for vpName carrying tag, nonces base+1..n.
func (e *vpEnv) sendTag(conn *transport.Conn, tag *core.Tag, base uint64, n int) {
	e.t.Helper()
	for k := 1; k <= n; k++ {
		if err := conn.SendInterest(&ndn.Interest{
			Name: vpName, Kind: ndn.KindContent, Nonce: base + uint64(k), Tag: tag,
		}); err != nil {
			e.t.Fatal(err)
		}
	}
}

// leadOn sends one Interest carrying tag on conn and waits until a
// worker holds it, so that whatever follows attaches to it.
func (e *vpEnv) leadOn(conn *transport.Conn, tag *core.Tag, nonce uint64) {
	e.t.Helper()
	before := e.fwd.Tactic().Validator().Verifications()
	e.sendTag(conn, tag, nonce-1, 1)
	waitFor(e.t, "leader in flight", func() bool {
		return e.fwd.Tactic().Validator().Verifications() == before+1
	})
}

func (e *vpEnv) wantCounts(verifications, coalesced uint64) {
	e.t.Helper()
	if got := e.fwd.Tactic().Validator().Verifications(); got != verifications {
		e.t.Errorf("verifications = %d, want %d", got, verifications)
	}
	if got := e.fwd.vp.Coalesced(); got != coalesced {
		e.t.Errorf("coalesced = %d, want %d", got, coalesced)
	}
}

// TestVerifyPoolOneVerifyPerTag: six Interests carrying one valid tag,
// from two faces, cost one signature check and one filter insertion,
// and every one of them is answered with the content.
func TestVerifyPoolOneVerifyPerTag(t *testing.T) {
	e := newVPEnv(t, 2, 8)
	e.warmProtected()
	e.gate.hold()
	a, b := e.dial(), e.dial()
	tag := e.validTag("alice")

	e.leadOn(a, tag, 1)
	e.sendTag(a, tag, 1, 2)
	e.sendTag(b, tag, 100, 3)
	waitFor(t, "followers to attach", func() bool { return e.fwd.vp.Parked() == 5 })
	e.gate.release()

	for _, conn := range []*transport.Conn{a, b} {
		if got := e.collectReplies(conn, 3); got["content"] != 3 {
			t.Fatalf("replies = %v, want 3 content", got)
		}
	}
	e.wantCounts(1, 5)
	if ins := e.fwd.Tactic().Bloom().Stats().Insertions; ins != 1 {
		t.Errorf("filter insertions = %d, want 1", ins)
	}
}

// TestVerifyPoolOneVerifyPerForgedTag: copies of one forged tag cost
// one signature check and each gets its own forged NACK.
func TestVerifyPoolOneVerifyPerForgedTag(t *testing.T) {
	e := newVPEnv(t, 2, 8)
	e.gate.hold()
	a, b := e.dial(), e.dial()
	tag := e.forgedTag("mallory")

	e.leadOn(a, tag, 1)
	e.sendTag(a, tag, 1, 2)
	e.sendTag(b, tag, 100, 3)
	waitFor(t, "followers to attach", func() bool { return e.fwd.vp.Parked() == 5 })
	e.gate.release()

	for _, conn := range []*transport.Conn{a, b} {
		if got := e.collectNACKs(conn, 3); got["forged"] != 3 {
			t.Fatalf("replies = %v, want 3 forged", got)
		}
	}
	e.wantCounts(1, 5)
}

// TestVerifyPoolFollowersChargeTheirFace: attaching to another face's
// leader does not slip the budget — a face whose every job would be a
// follower is shed at its own cap.
func TestVerifyPoolFollowersChargeTheirFace(t *testing.T) {
	const budget = 4
	e := newVPEnv(t, 1, budget)
	e.gate.hold()
	a, b := e.dial(), e.dial()
	tag := e.forgedTag("mallory")

	e.leadOn(a, tag, 1)
	e.sendTag(b, tag, 100, budget+2)
	if got := e.collectNACKs(b, 2); got["overload"] != 2 {
		t.Fatalf("sheds = %v, want 2 overload", got)
	}
	if parked := e.fwd.vp.Parked(); parked != budget {
		t.Fatalf("parked = %d, want %d followers", parked, budget)
	}
	e.gate.release()
	if got := e.collectNACKs(b, budget); got["forged"] != budget {
		t.Fatalf("followers = %v, want %d forged", got, budget)
	}
	if got := e.collectNACKs(a, 1); got["forged"] != 1 {
		t.Fatalf("leader = %v, want forged", got)
	}
	e.wantCounts(1, budget)
}

// TestVerifyPoolParkedLeaderFaceDeath: the face of a still-queued
// leader dies. Its followers on other faces must not go with it: the
// first takes over the verification and the rest follow that one.
func TestVerifyPoolParkedLeaderFaceDeath(t *testing.T) {
	e := newVPEnv(t, 1, 8)
	e.gate.hold()
	blocked, a, b := e.dial(), e.dial(), e.dial()

	// The single worker is held on another tag, so the tag under test
	// stays queued.
	e.leadOn(blocked, e.forgedTag("blocker"), 1)
	tag := e.forgedTag("mallory")
	e.sendTag(a, tag, 10, 2)
	waitFor(t, "leader and its twin to park", func() bool { return e.fwd.vp.Parked() == 2 })
	e.sendTag(b, tag, 100, 2)
	waitFor(t, "followers to attach", func() bool { return e.fwd.vp.Parked() == 4 })

	a.Close()
	waitFor(t, "dead face's jobs to flush", func() bool { return e.fwd.Stats().VerifyFlushed == 2 })
	if parked := e.fwd.vp.Parked(); parked != 2 {
		t.Fatalf("parked = %d after the flush, want the other face's 2", parked)
	}
	e.gate.release()
	if got := e.collectNACKs(b, 2); got["forged"] != 2 {
		t.Fatalf("surviving face = %v, want 2 forged", got)
	}
	e.collectNACKs(blocked, 1)
	e.wantCounts(2, 1) // the blocker's and the promoted follower's; one coalesced
}

// TestVerifyPoolInFlightLeaderFaceDeath: the face of a leader being
// verified dies. The verification is not abandoned, and followers on
// other faces still get its verdict.
func TestVerifyPoolInFlightLeaderFaceDeath(t *testing.T) {
	e := newVPEnv(t, 1, 8)
	e.gate.hold()
	a, b := e.dial(), e.dial()
	tag := e.forgedTag("mallory")

	e.leadOn(a, tag, 1)
	e.sendTag(a, tag, 1, 1)
	e.sendTag(b, tag, 100, 2)
	waitFor(t, "followers to attach", func() bool { return e.fwd.vp.Parked() == 3 })

	a.Close()
	waitFor(t, "dead face's follower to flush", func() bool { return e.fwd.Stats().VerifyFlushed == 1 })
	e.gate.release()
	if got := e.collectNACKs(b, 2); got["forged"] != 2 {
		t.Fatalf("surviving face = %v, want 2 forged", got)
	}
	e.wantCounts(1, 2)
}

// TestVerifyPoolRevocationFlushCoversFollowers: a revocation push
// flushes a parked group whole, leader and followers.
func TestVerifyPoolRevocationFlushCoversFollowers(t *testing.T) {
	e := newVPEnv(t, 1, 8)
	e.gate.hold()
	blocked, a, b := e.dial(), e.dial(), e.dial()

	e.leadOn(blocked, e.forgedTag("blocker"), 1)
	doomed := e.forgedTag("doomed")
	e.sendTag(a, doomed, 10, 1)
	waitFor(t, "leader to park", func() bool { return e.fwd.vp.Parked() == 1 })
	e.sendTag(b, doomed, 100, 2)
	waitFor(t, "followers to attach", func() bool { return e.fwd.vp.Parked() == 3 })

	if !e.fwd.ApplyRevocation(1, []core.TagID{doomed.ID()}) {
		t.Fatal("revocation push rejected")
	}
	if got := e.collectNACKs(a, 1); got["revoked"] != 1 {
		t.Fatalf("leader = %v, want revoked", got)
	}
	if got := e.collectNACKs(b, 2); got["revoked"] != 2 {
		t.Fatalf("followers = %v, want 2 revoked", got)
	}
	if flushed := e.fwd.Stats().VerifyFlushed; flushed != 3 {
		t.Fatalf("VerifyFlushed = %d, want 3", flushed)
	}
	e.gate.release()
	e.collectNACKs(blocked, 1)
	e.wantCounts(1, 0)
}

// TestVerifyPoolRevokedWhileLeaderVerifies: the revocation reaches the
// router while the leader's signature check is running (and without the
// pool's flush, as a push racing the group's close would). The leader's
// verdict stands; every follower runs its own gate and is denied as
// revoked, whatever the shared outcome.
func TestVerifyPoolRevokedWhileLeaderVerifies(t *testing.T) {
	e := newVPEnv(t, 1, 8)
	e.gate.hold()
	a, b := e.dial(), e.dial()
	tag := e.forgedTag("mallory")

	e.leadOn(a, tag, 1)
	e.sendTag(b, tag, 100, 3)
	waitFor(t, "followers to attach", func() bool { return e.fwd.vp.Parked() == 3 })
	if !e.fwd.Tactic().ApplyRevocation(1, []core.TagID{tag.ID()}) {
		t.Fatal("revocation rejected")
	}
	e.gate.release()
	if got := e.collectNACKs(a, 1); got["forged"] != 1 {
		t.Fatalf("leader = %v, want forged", got)
	}
	if got := e.collectNACKs(b, 3); got["revoked"] != 3 {
		t.Fatalf("followers = %v, want 3 revoked", got)
	}
	e.wantCounts(1, 3)
}

// TestVerifyPoolGateDeniedLeaderHandsOff: a queued leader whose own
// gate denies it when a worker picks it up has no verification outcome
// to share, so the group passes to the next follower rather than being
// answered from nothing.
func TestVerifyPoolGateDeniedLeaderHandsOff(t *testing.T) {
	e := newVPEnv(t, 1, 8)
	e.gate.hold()
	blocked, a, b := e.dial(), e.dial(), e.dial()

	e.leadOn(blocked, e.forgedTag("blocker"), 1)
	tag := e.forgedTag("mallory")
	e.sendTag(a, tag, 10, 1)
	waitFor(t, "leader to park", func() bool { return e.fwd.vp.Parked() == 1 })
	e.sendTag(b, tag, 100, 2)
	waitFor(t, "followers to attach", func() bool { return e.fwd.vp.Parked() == 3 })
	if !e.fwd.Tactic().ApplyRevocation(1, []core.TagID{tag.ID()}) {
		t.Fatal("revocation rejected")
	}
	e.gate.release()
	if got := e.collectNACKs(a, 1); got["revoked"] != 1 {
		t.Fatalf("leader = %v, want revoked", got)
	}
	if got := e.collectNACKs(b, 2); got["revoked"] != 2 {
		t.Fatalf("followers = %v, want 2 revoked", got)
	}
	e.collectNACKs(blocked, 1)
	e.wantCounts(1, 0) // only the blocker was ever verified
}

// TestVerifyPoolShutdownCoversFollowers: on shutdown the in-flight
// group gets its verdict and the parked group is flushed whole.
func TestVerifyPoolShutdownCoversFollowers(t *testing.T) {
	e := newVPEnv(t, 1, 8)
	e.gate.hold()
	a, b := e.dial(), e.dial()
	inflight, parked := e.forgedTag("inflight"), e.forgedTag("parked")

	e.leadOn(a, inflight, 1)
	e.sendTag(b, inflight, 100, 1)
	e.sendTag(a, parked, 10, 1)
	waitFor(t, "second leader to park", func() bool { return e.fwd.vp.Parked() == 2 })
	e.sendTag(b, parked, 200, 1)
	waitFor(t, "its follower to attach", func() bool { return e.fwd.vp.Parked() == 3 })

	closed := make(chan struct{})
	go func() { e.fwd.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while a verification was still gated")
	case <-time.After(20 * time.Millisecond):
	}
	e.gate.release()
	<-closed

	for _, conn := range []*transport.Conn{a, b} {
		if got := e.collectNACKs(conn, 2); got["forged"] != 1 || got["overload"] != 1 {
			t.Fatalf("replies = %v, want 1 forged + 1 overload", got)
		}
	}
	if flushed := e.fwd.Stats().VerifyFlushed; flushed != 2 {
		t.Fatalf("VerifyFlushed = %d, want 2", flushed)
	}
	e.wantCounts(1, 1)
}

// TestVerifyPoolCoalescedIsObservable: a follower's wait is as visible
// as a leader's — counted, timed in the park histogram, and named on
// its trace span, so /tracez still answers "why slow".
func TestVerifyPoolCoalescedIsObservable(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(64)
	e := newVPEnvCfg(t, 1, 8, func(cfg *Config) {
		cfg.Obs = reg
		cfg.Tracer = obs.NewTracerRecorder("edge-0", 1.0, io.Discard, rec)
	})
	e.gate.hold()
	a, b := e.dial(), e.dial()
	tag := e.forgedTag("mallory")

	e.leadOn(a, tag, 1)
	e.sendTag(b, tag, 100, 2)
	waitFor(t, "followers to attach", func() bool { return e.fwd.vp.Parked() == 2 })
	if got := reg.Snapshot()[obs.MetricVerifyParked+`{role="edge"}`]; got != 2 {
		t.Errorf("%s = %v with two followers waiting, want 2", obs.MetricVerifyParked, got)
	}
	e.gate.release()
	e.collectNACKs(a, 1)
	e.collectNACKs(b, 2)
	waitFor(t, "spans to end", func() bool { return len(rec.Snapshot()) == 3 })

	snap := reg.Snapshot()
	if got := snap[obs.MetricVerifyCoalesced+`{role="edge"}`]; got != 2 {
		t.Errorf("%s = %v, want 2", obs.MetricVerifyCoalesced, got)
	}
	if got := snap[obs.MetricVerifyParkSeconds+`_count{role="edge"}`]; got != 3 {
		t.Errorf("%s observations = %v, want 3 (leader and both followers)", obs.MetricVerifyParkSeconds, got)
	}
	if got := e.fwd.Status().VerifyPool.Coalesced; got != 2 {
		t.Errorf("/statusz verify_pool.coalesced = %d, want 2", got)
	}
	var verified, coalesced int
	for _, span := range rec.Snapshot() {
		for _, ev := range span.Events {
			switch ev.Stage {
			case "verify":
				verified++
			case "coalesced":
				coalesced++
				if ev.Detail != "fail" || span.Outcome != "nack:forged" {
					t.Errorf("coalesced span: event %+v, outcome %q", ev, span.Outcome)
				}
			}
		}
	}
	if verified != 1 || coalesced != 2 {
		t.Errorf("spans carry %d verify and %d coalesced events, want 1 and 2", verified, coalesced)
	}
}
