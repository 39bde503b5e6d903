package forwarder

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/enforce"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/node"
)

// The bounded asynchronous verification subsystem. Signature
// verification is the forwarder's 300x cost cliff (~100 µs per P-256
// verify against ~300 ns per BF lookup), and before this pool it ran
// inline on the per-face reader goroutines — so an attacker minting
// unseen tags on one face could stall that reader for the full verify
// latency per packet, and a shared-CPU box would see every face's
// reader degrade.
//
// Instead, Interests whose enforcement decision requires a signature
// check are *parked* here, PIT-style — the job keeps the arrival face
// and the Interest (with its nonce) so the eventual verdict is sent
// exactly where the request came from — and a fixed pool of workers
// drains the queues. Admission is budgeted per face: parked + in-flight
// jobs for one arrival face may not exceed the budget, and a face over
// budget is shed explicitly with a NACK carrying core.ErrOverload (wire
// reason code, counted under MetricVerifySheds) rather than silently
// dropped. Workers pick faces round-robin, so a flooding face that
// stays within its budget still cannot starve the other faces' parked
// work.
//
// The pool is also where live-plane verification is deduplicated: each
// tag is verified once. The first parked Interest carrying a tag (by
// Tag.CacheKey()) is the tag's *leader* — the only one queued and the
// only one a worker verifies. Every Interest admitted with the same tag
// while the leader is parked or in flight attaches to it as a
// *follower*: charged to its own face's budget, but holding neither a
// queue slot nor a worker. When the leader's verification returns, its
// outcome is folded into the engine first (so the Bloom-filter insert
// is visible before the group closes) and each follower is then decided
// as a subsequent request for that tag — enforce.Router.VerifyShared,
// with the follower's own inputs, clock and gates — which is a cache
// hit on success, so a run of Interests for one tag costs one
// verification and one insertion.
//
// Parked jobs are flushed — with best-effort NACKs — when their face
// dies, when their tag is revoked by a control push, and on forwarder
// shutdown, so nothing leaks and no client waits out a PIT lifetime
// for a verdict that can never come. A flushed leader hands its group
// to its first surviving follower.

// verifyJob is one parked Interest awaiting signature verification: the
// arrival and the decision the node core left pending on it.
type verifyJob struct {
	arrival
	pending node.Pending
	// interest is the job's own copy of the Interest, which arrival.i
	// points at: the face reader decodes its next packet into the one it
	// parked.
	interest ndn.Interest
	// parkedAt is the enqueue instant, for park-time observability.
	parkedAt time.Time

	// The fields below belong to the pool and are guarded by its mutex.

	// key is the tag's cache key while this job leads a group.
	key string
	// followers are the same-tag jobs admitted while this job led.
	followers []*verifyJob
}

// faceVerifyQueue is one face's admission state.
type faceVerifyQueue struct {
	// jobs are the face's queued leaders, oldest first.
	jobs []*verifyJob
	// charged counts every admitted job of the face that has no verdict
	// yet — queued, in flight, or following — against the budget.
	charged int
}

// verifyPool is the bounded worker pool.
type verifyPool struct {
	f *Forwarder
	// budget caps the jobs charged to one arrival face; 0 disables
	// admission (used by the DisableAdmission ablation — parking is
	// still asynchronous, only the cap is gone).
	budget int

	mu     sync.Mutex
	cond   *sync.Cond
	queues map[ndn.FaceID]*faceVerifyQueue
	// order is the round-robin rotation over faces that currently have
	// a queue; rr is the next index to scan from.
	order []ndn.FaceID
	rr    int
	// leaders maps a tag's cache key to the parked or in-flight job
	// whose verification will decide every job carrying that tag.
	leaders map[string]*verifyJob
	closed  bool

	parked    atomic.Int64
	sheds     atomic.Uint64
	flushed   atomic.Uint64
	coalesced atomic.Uint64

	wg sync.WaitGroup
}

func newVerifyPool(f *Forwarder, workers, budget int) *verifyPool {
	p := &verifyPool{f: f, budget: budget,
		queues: make(map[ndn.FaceID]*faceVerifyQueue), leaders: make(map[string]*verifyJob)}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker()
	}
	return p
}

// admit parks a job against its arrival face's budget: queued as its
// tag's leader, or attached to the leader the tag already has. It
// returns false — and the caller must shed with an Overload NACK — when
// the face is over budget or the pool is shutting down.
func (p *verifyPool) admit(job *verifyJob) bool {
	id := job.from.id
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.sheds.Add(1)
		return false
	}
	q := p.queues[id]
	if q == nil {
		q = &faceVerifyQueue{}
		p.queues[id] = q
		p.order = append(p.order, id)
	}
	if p.budget > 0 && q.charged >= p.budget {
		p.mu.Unlock()
		p.sheds.Add(1)
		return false
	}
	q.charged++
	p.parked.Add(1)
	key := job.i.Tag.CacheKey()
	if leader := p.leaders[string(key)]; leader != nil {
		leader.followers = append(leader.followers, job)
		p.mu.Unlock()
		return true
	}
	job.key = string(key)
	p.leaders[job.key] = job
	q.jobs = append(q.jobs, job)
	p.mu.Unlock()
	p.cond.Signal()
	return true
}

// next pops one leader round-robin across faces. It blocks until one is
// queued or the pool closes (nil).
func (p *verifyPool) next() *verifyJob {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.closed {
			return nil
		}
		for scanned := 0; scanned < len(p.order); scanned++ {
			idx := (p.rr + scanned) % len(p.order)
			q := p.queues[p.order[idx]]
			if len(q.jobs) == 0 {
				continue
			}
			job := q.jobs[0]
			q.jobs = q.jobs[1:]
			p.parked.Add(-1)
			p.rr = (idx + 1) % len(p.order)
			return job
		}
		p.cond.Wait()
	}
}

// uncharge returns one budget slot to a face and garbage-collects the
// face's queue entry when nothing is charged to it. Caller holds p.mu.
func (p *verifyPool) uncharge(id ndn.FaceID) {
	q := p.queues[id]
	q.charged--
	if q.charged > 0 {
		return
	}
	delete(p.queues, id)
	for i, fid := range p.order {
		if fid == id {
			p.order = append(p.order[:i], p.order[i+1:]...)
			if p.rr > i {
				p.rr--
			}
			break
		}
	}
	if len(p.order) > 0 {
		p.rr %= len(p.order)
	} else {
		p.rr = 0
	}
}

// unqueue takes a leader out of its face's queue, reporting false when
// it is not there: a worker has it. Caller holds p.mu.
func (p *verifyPool) unqueue(leader *verifyJob) bool {
	q := p.queues[leader.from.id]
	for i, job := range q.jobs {
		if job == leader {
			q.jobs = append(q.jobs[:i], q.jobs[i+1:]...)
			return true
		}
	}
	return false
}

// handoff ends a leader's lead without a verification outcome to share
// (it was flushed, or its own pre-verify gate denied it): the first
// follower takes over the group, queued on its own face, or the key
// retires with the group empty. Caller holds p.mu.
func (p *verifyPool) handoff(leader *verifyJob) {
	followers := leader.followers
	leader.followers = nil
	if len(followers) == 0 {
		delete(p.leaders, leader.key)
		return
	}
	next := followers[0]
	next.key, next.followers = leader.key, followers[1:]
	p.leaders[next.key] = next
	q := p.queues[next.from.id]
	q.jobs = append(q.jobs, next)
	p.cond.Signal()
}

// retire ends an in-flight leader's lead and frees its budget slot.
// With a verification outcome to share the group closes and its
// followers are returned, uncharged, for the caller to decide; without
// one the group is handed off.
func (p *verifyPool) retire(leader *verifyJob, verified bool) []*verifyJob {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.uncharge(leader.from.id)
	if !verified {
		p.handoff(leader)
		return nil
	}
	followers := leader.followers
	leader.followers = nil
	delete(p.leaders, leader.key)
	for _, fj := range followers {
		p.uncharge(fj.from.id)
	}
	p.parked.Add(int64(-len(followers)))
	return followers
}

func (p *verifyPool) worker() {
	defer p.wg.Done()
	for {
		job := p.next()
		if job == nil {
			return
		}
		p.run(job)
	}
}

// run verifies a leader's tag, decides the leader and then every
// follower from that one outcome, and resumes their pipelines. It
// executes on a worker goroutine — never on a face reader.
func (p *verifyPool) run(job *verifyJob) {
	f := p.f
	parkDur := time.Since(job.parkedAt)
	f.m.parkSeconds.Observe(parkDur.Seconds())
	if job.sp != nil {
		job.sp.EventDur("parked", parkDur, "")
	}
	dec := f.tactic.VerifyMiss(job.pending.Input(job.i, job.now))
	if job.sp != nil {
		job.sp.Event("verify", verifyDetail(dec.Denied()))
	}
	// The group closes before the leader's pipeline resumes: an edge
	// verdict can lead straight to a content decision that parks the
	// same tag again, and that job must lead a group of its own.
	followers := p.retire(job, dec.Verified)
	p.coalesced.Add(uint64(len(followers)))
	p.complete(job, dec)
	for _, fj := range followers {
		wait := time.Since(fj.parkedAt)
		f.m.parkSeconds.Observe(wait.Seconds())
		fdec := f.tactic.VerifyShared(fj.pending.Input(fj.i, fj.now), dec.Reason)
		if fj.sp != nil {
			fj.sp.EventDur("coalesced", wait, verifyDetail(fdec.Denied()))
		}
		p.complete(fj, fdec)
	}
}

// complete resumes a job's pipeline with its enforcement verdict.
func (p *verifyPool) complete(job *verifyJob, dec enforce.Verdict) {
	p.f.act(job.arrival, p.f.node.ResumeInterest(job.i, job.from.id, job.pending, dec, job.now))
}

// flushWhere removes parked jobs matching match — queued leaders and
// followers alike — and answers each with the scheduler's own bare NACK
// (best-effort: on face death it goes into a closing connection). An
// in-flight leader is not touched — its verdict lands normally — but its
// followers are.
func (p *verifyPool) flushWhere(match func(*verifyJob) bool, reason error) int {
	var out []*verifyJob
	p.mu.Lock()
	for _, leader := range p.leaders {
		kept := leader.followers[:0]
		for _, fj := range leader.followers {
			if match(fj) {
				out = append(out, fj)
			} else {
				kept = append(kept, fj)
			}
		}
		leader.followers = kept
		if match(leader) && p.unqueue(leader) {
			out = append(out, leader)
			p.handoff(leader)
		}
	}
	for _, job := range out {
		p.uncharge(job.from.id)
	}
	p.parked.Add(int64(-len(out)))
	p.mu.Unlock()
	for _, job := range out {
		p.flushed.Add(1)
		p.f.reply(job.arrival, node.Answer{Nack: true, Reason: reason}, time.Time{})
	}
	return len(out)
}

// shutdown stops the workers (in-flight verifies complete and deliver
// their groups' verdicts), then flushes every still-parked job with an
// Overload NACK. Callers must invoke it while faces are still attached
// so the flush NACKs can reach clients.
func (p *verifyPool) shutdown() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
	p.flushWhere(func(*verifyJob) bool { return true }, core.ErrOverload)
}

// Sheds returns the number of Interests shed over budget.
func (p *verifyPool) Sheds() uint64 { return p.sheds.Load() }

// Parked returns the number of Interests currently awaiting a verdict:
// queued leaders and followers (a leader being verified is counted by
// the validator's in-flight gauge instead).
func (p *verifyPool) Parked() int64 { return p.parked.Load() }

// Flushed returns the number of parked Interests flushed with NACKs.
func (p *verifyPool) Flushed() uint64 { return p.flushed.Load() }

// Coalesced returns the number of Interests answered from another
// Interest's verification.
func (p *verifyPool) Coalesced() uint64 { return p.coalesced.Load() }
