package node

import (
	"slices"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/ndn"
)

// VerifyQueue is a node's admission to signature verification, the 300x
// cost cliff, for both drivers. The jobs charged to an arrival face —
// queued, running or following — may not exceed the budget; one over it
// is shed (enforce.Shed). The first job admitted with a tag (by
// Tag.Digest(), the digest of its whole CacheKey: never by TagID, which
// omits the signature and would let a forged signature follow a genuine
// one) leads the tag's group and is the only one verified; a
// job admitted while the group is open follows, charged to its own face,
// and leaves with the leader's outcome. Leaders are taken round-robin
// across faces, so one face's backlog cannot starve another's.
//
// No clock, no lock, no goroutine: the caller serialises every call — the
// live verify pool under its mutex, the simulator in an event handler —
// and releases a job's charge (Release) when its verification completes,
// apart from closing its group. J is the driver's job handle, distinct per
// job until it leaves: taken by Next and closed, returned as a follower,
// or flushed.
type VerifyQueue[J comparable] struct {
	budget int
	faces  map[ndn.FaceID]*faceQueue[J]
	// order is the round-robin rotation over charged faces, rr the next
	// index to scan; groups maps tag digests to open groups, running are
	// those Next handed out, free are closed ones kept for reuse, and
	// idle are the queues of faces whose charge ran out, likewise.
	order   []ndn.FaceID
	rr      int
	groups  map[core.Digest]*group[J]
	running []*group[J]
	free    []*group[J]
	idle    []*faceQueue[J]
}

// faceQueue is one face's groups waiting for Next, oldest first, and its
// admitted jobs not yet released.
type faceQueue[J comparable] struct {
	queued  []*group[J]
	charged int
}

// member is an admitted job and the face it is charged to.
type member[J comparable] struct {
	job  J
	face ndn.FaceID
}

// group is a tag's open verification.
type group[J comparable] struct {
	key       core.Digest
	leader    member[J]
	followers []member[J]
}

// Admission is what Admit did: Shed (the face is at its budget), or
// admitted as the tag's queued Leader or as a Follower.
type Admission uint8

const (
	Shed Admission = iota
	Leader
	Follower
)

// NewVerifyQueue creates a queue charging at most budget jobs to a face;
// 0 admits without bound, as does Tactic.DisableAdmission (the "forgot to
// cap" ablation) whatever the budget.
func NewVerifyQueue[J comparable](budget int, tactic core.Config) *VerifyQueue[J] {
	if tactic.DisableAdmission {
		budget = 0
	}
	return &VerifyQueue[J]{budget: budget,
		faces: make(map[ndn.FaceID]*faceQueue[J]), groups: make(map[core.Digest]*group[J])}
}

// Budget is the per-face cap, 0 when admission is unbounded.
func (q *VerifyQueue[J]) Budget() int { return q.budget }

// Len reports the open groups and the charged faces.
func (q *VerifyQueue[J]) Len() (groups, faces int) { return len(q.groups), len(q.faces) }

// Admit charges job, arriving on face with a tag of digest key, to the
// face — unless it is at its budget — as the tag's leader or follower.
func (q *VerifyQueue[J]) Admit(job J, face ndn.FaceID, key core.Digest) Admission {
	fq := q.faces[face]
	if fq == nil {
		if n := len(q.idle); n > 0 {
			fq, q.idle = q.idle[n-1], q.idle[:n-1]
		} else {
			fq = new(faceQueue[J])
		}
		q.faces[face] = fq
		q.order = append(q.order, face)
	} else if q.budget > 0 && fq.charged >= q.budget {
		return Shed
	}
	fq.charged++
	m := member[J]{job: job, face: face}
	if g := q.groups[key]; g != nil {
		g.followers = append(g.followers, m)
		return Follower
	}
	var g *group[J]
	if n := len(q.free); n > 0 {
		g, q.free = q.free[n-1], q.free[:n-1]
	} else {
		g = new(group[J])
	}
	g.key, g.leader = key, m
	q.groups[g.key] = g
	fq.queued = append(fq.queued, g)
	return Leader
}

// Next hands out the next queued leader, round-robin across faces; ok is
// false when none waits. The leader runs until the driver closes it.
func (q *VerifyQueue[J]) Next() (job J, ok bool) {
	for scanned := 0; scanned < len(q.order); scanned++ {
		idx := (q.rr + scanned) % len(q.order)
		fq := q.faces[q.order[idx]]
		if len(fq.queued) == 0 {
			continue
		}
		g := fq.queued[0]
		fq.queued = slices.Delete(fq.queued, 0, 1)
		q.rr = (idx + 1) % len(q.order)
		q.running = append(q.running, g)
		return g.leader.job, true
	}
	return job, false
}

// Close ends a running leader's lead. With an outcome to share the group
// closes and its followers are appended to out, for the driver to decide;
// without one (the leader's own gate denied it) the first follower takes
// the group over. The driver releases each returned job's charge.
func (q *VerifyQueue[J]) Close(leader J, shared bool, out []J) []J {
	i := slices.IndexFunc(q.running, func(g *group[J]) bool { return g.leader.job == leader })
	if i < 0 {
		return out
	}
	g := q.running[i]
	q.running = slices.Delete(q.running, i, i+1)
	if !shared {
		q.handoff(g)
		return out
	}
	for _, m := range g.followers {
		out = append(out, m.job)
	}
	q.retire(g)
	return out
}

// Release returns one admitted job's charge to face.
func (q *VerifyQueue[J]) Release(face ndn.FaceID) {
	fq := q.faces[face]
	if fq == nil {
		return
	}
	if fq.charged--; fq.charged > 0 {
		return
	}
	delete(q.faces, face)
	q.idle = append(q.idle, fq) // uncharged, so nothing queued
	i := slices.Index(q.order, face)
	q.order = slices.Delete(q.order, i, i+1)
	if q.rr > i {
		q.rr--
	}
	if q.rr >= len(q.order) {
		q.rr = 0
	}
}

// Flush removes every waiting job match selects — queued leaders, and any
// leader's followers — and appends it to out; a running leader's verdict
// lands as usual. A flushed leader hands its group to its first surviving
// follower. The driver releases each flushed job's charge.
func (q *VerifyQueue[J]) Flush(match func(J) bool, out []J) []J {
	for _, g := range q.groups {
		g.followers = slices.DeleteFunc(g.followers, func(m member[J]) bool {
			if match(m.job) {
				out = append(out, m.job)
				return true
			}
			return false
		})
		fq := q.faces[g.leader.face]
		if i := slices.Index(fq.queued, g); i >= 0 && match(g.leader.job) { // else running or kept
			fq.queued = slices.Delete(fq.queued, i, i+1)
			out = append(out, g.leader.job)
			q.handoff(g)
		}
	}
	return out
}

// handoff passes a lead with no outcome to share to the first follower,
// queued on its own face, or retires the group empty.
func (q *VerifyQueue[J]) handoff(g *group[J]) {
	if len(g.followers) == 0 {
		q.retire(g)
		return
	}
	g.leader = g.followers[0]
	g.followers = slices.Delete(g.followers, 0, 1)
	fq := q.faces[g.leader.face]
	fq.queued = append(fq.queued, g)
}

// retire closes a group and keeps it for reuse.
func (q *VerifyQueue[J]) retire(g *group[J]) {
	delete(q.groups, g.key)
	clear(g.followers)
	g.key, g.leader, g.followers = core.Digest{}, member[J]{}, g.followers[:0]
	q.free = append(q.free, g)
}
