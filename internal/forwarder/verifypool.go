package forwarder

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/enforce"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/node"
	"github.com/tactic-icn/tactic/internal/obs"
)

// The bounded asynchronous verification subsystem. Signature
// verification is the 300x cost cliff (~100 µs per P-256 verify against
// ~300 ns per BF lookup): inline, an attacker minting unseen tags could
// stall a face reader per packet. Instead an Interest whose decision needs
// a signature check is parked here, PIT-style (the job keeps its arrival
// face and the Interest with its nonce), and a fixed pool of workers
// drains them. Admission, order and sharing are node.VerifyQueue, the
// simulator's admission too; what stays here is what is live: the lock,
// the workers, the counters and the NACKs — a shed, or a flush on face
// death, revocation or shutdown, is answered with a bare NACK.
//
// A worker verifies a leader, folds the outcome into the engine (the
// Bloom-filter insert is visible first), closes the group and releases
// its charges, then resumes the leader's pipeline. Each follower is
// decided as a subsequent request for that tag (enforce.Router.
// VerifyShared, with its own inputs, clock and gates): a cache hit on
// success, so a tag costs one verification and one insertion.

// verifyJob is one parked Interest awaiting signature verification: the
// arrival and the decision the node core left pending on it. Jobs come
// from the pool's free list (get) and go back to it (put) once answered:
// completed, shed or flushed.
type verifyJob struct {
	arrival
	pending node.Pending
	// interest is the job's own copy of the Interest, which arrival.i
	// points at: the face reader decodes its next packet into the one it
	// parked.
	interest ndn.Interest
	// content is the job's own copy of a content check's hit, which
	// pending.Content then points at (the reader copies its next hit into
	// the one it parked), and the destination of a hit its resumed
	// pipeline meets. Its buffer stays with the job on the free list.
	content core.Content
	// parkedAt is the enqueue instant, for park-time observability.
	parkedAt time.Time
}

// maxFreeJobs bounds the free list: a flood's worth of jobs is not kept
// once it has drained.
const maxFreeJobs = 1024

// verifyPool is the bounded worker pool: the goroutines, the lock and
// the counters around the node's verify queue.
type verifyPool struct {
	f *Forwarder

	mu   sync.Mutex
	cond *sync.Cond
	// q is the admission policy — per-face budget, tag groups,
	// round-robin — closed stops admitting and free holds answered jobs
	// for reuse; all are guarded by mu.
	q      *node.VerifyQueue[*verifyJob]
	closed bool
	free   []*verifyJob

	parked    atomic.Int64
	sheds     atomic.Uint64
	flushed   atomic.Uint64
	coalesced atomic.Uint64

	wg sync.WaitGroup
}

func newVerifyPool(f *Forwarder, workers, budget int) *verifyPool {
	p := &verifyPool{f: f, q: node.NewVerifyQueue[*verifyJob](budget, f.cfg.Tactic)}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker()
	}
	return p
}

// get takes a job off the free list, or allocates one; put clears an
// answered job and returns it. The caller holds mu.
func (p *verifyPool) get() *verifyJob {
	n := len(p.free)
	if n == 0 {
		return new(verifyJob)
	}
	job := p.free[n-1]
	p.free = p.free[:n-1]
	return job
}

func (p *verifyPool) put(job *verifyJob) {
	if len(p.free) < maxFreeJobs {
		job.content.Reset()
		content := job.content
		*job = verifyJob{}
		job.content = content
		p.free = append(p.free, job)
	}
}

// park hands an Interest the node core left pending on a verification to
// the queue as a job — queued as its tag's leader, or attached to the
// leader the tag has — or, when the face is over budget or the pool is
// shutting down, sheds it with an Overload NACK. Face readers park first
// decisions, workers an edge-verified Interest whose content decision
// needs a verification too.
func (p *verifyPool) park(a arrival, pending node.Pending) {
	parkedAt := time.Now()
	// Annotate before admitting: once admitted the job belongs to a
	// worker, and the span with it.
	if a.sp != nil {
		a.sp.Event("park", "verify")
	}
	adm := node.Shed
	p.mu.Lock()
	if !p.closed {
		// The job outlives the arrival's packet and hit, which the face
		// reader decodes and copies its next ones into: it takes its own
		// copies.
		job := p.get()
		job.arrival, job.pending, job.interest, job.parkedAt = a, pending, *a.i, parkedAt
		job.i = &job.interest
		job.out = nil // a worker's sends go to the write queue, not the reader's batch
		if pending.Content != nil {
			core.CopyContent(&job.content, pending.Content)
			job.pending.Content = &job.content
		}
		if adm = p.q.Admit(job, a.from.id, a.i.Tag.Digest()); adm == node.Shed {
			p.put(job)
		} else {
			p.parked.Add(1)
		}
	}
	p.mu.Unlock()
	switch adm {
	case node.Leader:
		p.cond.Signal()
	case node.Shed:
		p.sheds.Add(1)
		// Rate-limited to ~1 event/s: a shed storm logs as a burst count,
		// not one event per dropped Interest.
		if p.f.ev != nil {
			if burst := p.f.shedGate.Add(1); burst > 0 {
				p.f.ev.Emit(obs.EventShedBurst, int(a.from.id), "verify_overload", burst)
			}
		}
		p.f.reply(a, p.f.node.Refuse(pending, core.ErrOverload), time.Time{})
	}
}

// worker takes leaders, round-robin across faces, until the pool closes.
// It answers them with one follower buffer of its own and returns each
// answered job to the free list when it next holds the lock.
func (p *verifyPool) worker() {
	defer p.wg.Done()
	var followers []*verifyJob
	p.mu.Lock()
	for !p.closed {
		job, ok := p.q.Next()
		if !ok {
			p.cond.Wait()
			continue
		}
		p.parked.Add(-1)
		p.mu.Unlock()
		followers = p.run(job, followers[:0])
		p.mu.Lock()
		p.put(job)
		for _, fj := range followers {
			p.put(fj)
		}
	}
	p.mu.Unlock()
}

// run verifies a leader's tag, decides the leader and then every
// follower from that one outcome, resumes their pipelines and returns
// the followers, appended to buf. It executes on a worker goroutine —
// never on a face reader.
func (p *verifyPool) run(job *verifyJob, buf []*verifyJob) []*verifyJob {
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
	// The group closes, and its charges are released, before the leader's
	// pipeline resumes: an edge verdict can lead straight to a content
	// decision that parks the same tag again, and that job must lead a
	// group of its own. Without an outcome to share (the leader's own gate
	// denied it) the group passes to a follower, which may lead now.
	p.mu.Lock()
	followers := p.q.Close(job, dec.Verified, buf)
	p.q.Release(job.from.id)
	for _, fj := range followers {
		p.q.Release(fj.from.id)
	}
	p.parked.Add(int64(-len(followers)))
	p.mu.Unlock()
	if !dec.Verified {
		p.cond.Signal()
	}
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
	return followers
}

// complete resumes a job's pipeline with its enforcement verdict.
func (p *verifyPool) complete(job *verifyJob, dec enforce.Verdict) {
	p.f.act(job.arrival, p.f.node.ResumeInterest(job.i, job.from.id, job.pending, dec, &job.content, job.now))
}

// flushWhere removes parked jobs matching match — queued leaders and
// followers alike — and answers each with the scheduler's own bare NACK
// (best-effort: on face death it goes into a closing connection). An
// in-flight leader is not touched — its verdict lands normally — but its
// followers are.
func (p *verifyPool) flushWhere(match func(*verifyJob) bool, reason error) int {
	p.mu.Lock()
	out := p.q.Flush(match, nil)
	for _, job := range out {
		p.q.Release(job.from.id)
	}
	p.parked.Add(int64(-len(out)))
	p.mu.Unlock()
	if len(out) > 0 {
		p.cond.Broadcast() // flushed leaders may have handed their groups on
	}
	for _, job := range out {
		p.flushed.Add(1)
		p.f.reply(job.arrival, p.f.node.Refuse(job.pending, reason), time.Time{})
	}
	p.mu.Lock()
	for _, job := range out {
		p.put(job)
	}
	p.mu.Unlock()
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
