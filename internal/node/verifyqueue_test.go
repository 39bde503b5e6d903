package node

import (
	"slices"
	"testing"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/ndn"
)

// Faces of the queue under test.
const (
	faceA ndn.FaceID = 1
	faceB ndn.FaceID = 2
	faceC ndn.FaceID = 3
)

// admitAll admits each job on face under a tag of its own (its name) and
// checks the admissions.
func admitAll(t *testing.T, q *VerifyQueue[string], face ndn.FaceID, want Admission, jobs ...string) {
	t.Helper()
	for _, job := range jobs {
		if got := q.Admit(job, face, digestOf(job)); got != want {
			t.Fatalf("Admit(%s on face %d) = %d, want %d", job, face, got, want)
		}
	}
}

// next pops every queued leader, in order.
func next(q *VerifyQueue[string]) []string {
	var out []string
	for job, ok := q.Next(); ok; job, ok = q.Next() {
		out = append(out, job)
	}
	return out
}

func charged[J comparable](q *VerifyQueue[J], face ndn.FaceID) int {
	if fq := q.faces[face]; fq != nil {
		return fq.charged
	}
	return 0
}

func TestVerifyQueueRows(t *testing.T) {
	tag := digestOf("shared-tag")
	for _, tc := range []struct {
		name   string
		budget int
		tactic core.Config
		run    func(t *testing.T, q *VerifyQueue[string])
	}{
		{"shed at the cap, admit again on release", 2, core.Config{}, func(t *testing.T, q *VerifyQueue[string]) {
			admitAll(t, q, faceA, Leader, "a1", "a2")
			admitAll(t, q, faceA, Shed, "a3")
			// A popped and closed job still holds its charge until released.
			job, _ := q.Next()
			q.Close(job, true, nil)
			admitAll(t, q, faceA, Shed, "a3")
			q.Release(faceA)
			admitAll(t, q, faceA, Leader, "a3")
			if got := charged(q, faceA); got != 2 {
				t.Fatalf("charged = %d, want 2", got)
			}
		}},
		{"the budget is per face", 2, core.Config{}, func(t *testing.T, q *VerifyQueue[string]) {
			admitAll(t, q, faceA, Leader, "a1", "a2")
			admitAll(t, q, faceA, Shed, "a3")
			admitAll(t, q, faceB, Leader, "b1", "b2")
		}},
		{"DisableAdmission admits without bound", 2, core.Config{DisableAdmission: true}, func(t *testing.T, q *VerifyQueue[string]) {
			admitAll(t, q, faceA, Leader, "a1", "a2", "a3", "a4")
			if q.Budget() != 0 {
				t.Fatalf("Budget = %d, want 0", q.Budget())
			}
		}},
		{"a follower is charged to its own face", 1, core.Config{}, func(t *testing.T, q *VerifyQueue[string]) {
			if got := q.Admit("a1", faceA, tag); got != Leader {
				t.Fatalf("a1 = %d, want Leader", got)
			}
			if got := q.Admit("b1", faceB, tag); got != Follower {
				t.Fatalf("b1 = %d, want Follower", got)
			}
			admitAll(t, q, faceB, Shed, "b2") // b1 holds face B's one slot
			if got := charged(q, faceA); got != 1 {
				t.Fatalf("face A charged = %d, want 1", got)
			}
			// Only the leader is queued; closing it returns the follower.
			if got := next(q); !slices.Equal(got, []string{"a1"}) {
				t.Fatalf("queued = %v, want [a1]", got)
			}
			if got := q.Close("a1", true, nil); !slices.Equal(got, []string{"b1"}) {
				t.Fatalf("followers = %v, want [b1]", got)
			}
		}},
		{"leaders are taken round-robin across faces", 0, core.Config{}, func(t *testing.T, q *VerifyQueue[string]) {
			admitAll(t, q, faceA, Leader, "a1", "a2", "a3")
			admitAll(t, q, faceB, Leader, "b1")
			admitAll(t, q, faceC, Leader, "c1", "c2")
			if got, want := next(q), []string{"a1", "b1", "c1", "a2", "c2", "a3"}; !slices.Equal(got, want) {
				t.Fatalf("order = %v, want %v", got, want)
			}
		}},
		{"flushing a queued leader hands its group on", 0, core.Config{}, func(t *testing.T, q *VerifyQueue[string]) {
			q.Admit("a1", faceA, tag)
			q.Admit("b1", faceB, tag)
			q.Admit("c1", faceC, tag)
			got := q.Flush(func(job string) bool { return job == "a1" }, nil)
			if !slices.Equal(got, []string{"a1"}) {
				t.Fatalf("flushed = %v, want [a1]", got)
			}
			// b1 leads now, queued on its own face; c1 follows it.
			if got := next(q); !slices.Equal(got, []string{"b1"}) {
				t.Fatalf("queued = %v, want [b1]", got)
			}
			if got := q.Close("b1", true, nil); !slices.Equal(got, []string{"c1"}) {
				t.Fatalf("followers = %v, want [c1]", got)
			}
		}},
		{"flushing a running leader's group takes its followers only", 0, core.Config{}, func(t *testing.T, q *VerifyQueue[string]) {
			q.Admit("a1", faceA, tag)
			q.Admit("b1", faceB, tag)
			q.Admit("c1", faceC, tag)
			q.Next()
			got := q.Flush(func(string) bool { return true }, nil)
			if !slices.Equal(got, []string{"b1", "c1"}) {
				t.Fatalf("flushed = %v, want [b1 c1]", got)
			}
			if got := q.Close("a1", true, nil); len(got) != 0 {
				t.Fatalf("followers = %v, want none", got)
			}
		}},
		{"a leader closed without an outcome hands its group on", 0, core.Config{}, func(t *testing.T, q *VerifyQueue[string]) {
			q.Admit("a1", faceA, tag)
			q.Admit("b1", faceB, tag)
			q.Next()
			if got := q.Close("a1", false, nil); len(got) != 0 {
				t.Fatalf("followers = %v, want none", got)
			}
			if got := next(q); !slices.Equal(got, []string{"b1"}) {
				t.Fatalf("queued = %v, want [b1]", got)
			}
			q.Close("b1", true, nil)
			// The tag's group is closed: the next job leads a group of its own.
			if got := q.Admit("c1", faceC, tag); got != Leader {
				t.Fatalf("c1 = %d, want Leader", got)
			}
			q.Flush(func(string) bool { return true }, nil)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := NewVerifyQueue[string](tc.budget, tc.tactic)
			tc.run(t, q)
			// Whatever is left leaves and is released: the queue is empty.
			q.Flush(func(string) bool { return true }, nil)
			for _, g := range slices.Clone(q.running) {
				q.Close(g.leader.job, true, nil)
			}
			for face, fq := range q.faces {
				for fq.charged > 0 {
					q.Release(face)
				}
			}
			if groups, faces := q.Len(); groups != 0 || faces != 0 || len(q.order) != 0 {
				t.Fatalf("residue: %d groups, %d faces, rotation %v", groups, faces, q.order)
			}
		})
	}
}

// FuzzVerifyQueue drives a queue with Admit / Next / Close (with or
// without an outcome) / Release / Flush over three faces and three tags,
// decoded from the input: the first byte sets the budget (0-3), then each
// pair of bytes is an operation and its argument. After every operation
// no face is charged above the budget, each face's charge is its admitted
// jobs minus its releases, and every open group has one leader — queued
// once or running, never both — with every waiting job in exactly one
// group. Every admitted job leaves exactly once (popped then closed,
// returned as a follower, or flushed); a final drain checks that all of
// them did and that the queue is empty.
func FuzzVerifyQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		budget := int(in[0] % 4)
		q := NewVerifyQueue[int](budget, core.Config{})
		type jobState struct {
			face    ndn.FaceID
			tag     byte
			running bool
			left    bool
		}
		var jobs []jobState
		var running []int // model of the running leaders
		var owed []int    // left, not yet released
		want := map[ndn.FaceID]int{}
		leave := func(job int) {
			t.Helper()
			if jobs[job].left {
				t.Fatalf("job %d left twice", job)
			}
			jobs[job].left = true
			owed = append(owed, job)
		}
		check := func(op string) {
			t.Helper()
			for face := ndn.FaceID(0); face < 3; face++ {
				got := charged(q, face)
				if got != want[face] {
					t.Fatalf("after %s: face %d charged %d, want %d admitted minus released", op, face, got, want[face])
				}
				if budget > 0 && got > budget {
					t.Fatalf("after %s: face %d charged %d over budget %d", op, face, got, budget)
				}
			}
			if _, faces := q.Len(); faces != len(q.order) {
				t.Fatalf("after %s: %d charged faces, %d in rotation", op, faces, len(q.order))
			}
			seen := map[int]bool{}
			place := func(job int) {
				t.Helper()
				if seen[job] || jobs[job].left {
					t.Fatalf("after %s: job %d placed twice or after leaving", op, job)
				}
				seen[job] = true
			}
			for key, g := range q.groups {
				if g.key != key || key != digestOf(string([]byte{jobs[g.leader.job].tag})) {
					t.Fatalf("after %s: group %q led by job %d of tag %d", op, key, g.leader.job, jobs[g.leader.job].tag)
				}
				place(g.leader.job)
				for _, m := range g.followers {
					if jobs[m.job].tag != jobs[g.leader.job].tag {
						t.Fatalf("after %s: job %d follows another tag's leader", op, m.job)
					}
					place(m.job)
				}
				queued := 0
				for _, fq := range q.faces {
					for _, qg := range fq.queued {
						if qg == g {
							queued++
						}
					}
				}
				inFlight := slices.Contains(q.running, g)
				if queued+btoi(inFlight) != 1 || inFlight != jobs[g.leader.job].running {
					t.Fatalf("after %s: group %q queued %d times, running %v", op, key, queued, inFlight)
				}
			}
			for job, st := range jobs {
				if !st.left && !seen[job] {
					t.Fatalf("after %s: admitted job %d is nowhere", op, job)
				}
			}
		}
		for k := 1; k+1 < len(in); k += 2 {
			arg := in[k+1]
			switch op := in[k] % 6; op {
			case 0:
				face, tag := ndn.FaceID(arg%3), arg/3%3
				atBudget := budget > 0 && want[face] >= budget
				job := len(jobs)
				switch adm := q.Admit(job, face, digestOf(string([]byte{tag}))); {
				case adm == Shed && !atBudget, adm != Shed && atBudget:
					t.Fatalf("Admit on face %d charged %d/%d = %d", face, want[face], budget, adm)
				case adm != Shed:
					jobs = append(jobs, jobState{face: face, tag: tag})
					want[face]++
				}
				check("admit")
			case 1:
				if job, ok := q.Next(); ok {
					if jobs[job].running || jobs[job].left {
						t.Fatalf("Next handed out job %d twice", job)
					}
					jobs[job].running = true
					running = append(running, job)
				}
				check("next")
			case 2, 3:
				if len(running) == 0 {
					continue
				}
				i := int(arg) % len(running)
				job := running[i]
				running = slices.Delete(running, i, i+1)
				jobs[job].running = false
				for _, fj := range q.Close(job, op == 2, nil) {
					leave(fj)
				}
				leave(job)
				check("close")
			case 4:
				if len(owed) == 0 {
					continue
				}
				i := int(arg) % len(owed)
				job := owed[i]
				owed = slices.Delete(owed, i, i+1)
				q.Release(jobs[job].face)
				want[jobs[job].face]--
				check("release")
			case 5:
				match := func(job int) bool { return jobs[job].tag == arg/2%3 }
				if arg%2 == 0 {
					match = func(job int) bool { return jobs[job].face == ndn.FaceID(arg/2%3) }
				}
				for _, job := range q.Flush(match, nil) {
					if jobs[job].running {
						t.Fatalf("Flush took running leader %d", job)
					}
					leave(job)
				}
				check("flush")
			}
		}
		// Drain: flush what waits, close what runs, release what is owed.
		for _, job := range q.Flush(func(int) bool { return true }, nil) {
			leave(job)
		}
		for _, job := range running {
			jobs[job].running = false
			for _, fj := range q.Close(job, true, nil) {
				leave(fj)
			}
			leave(job)
		}
		for _, job := range owed {
			q.Release(jobs[job].face)
			want[jobs[job].face]--
		}
		owed = nil
		check("drain")
		for job, st := range jobs {
			if !st.left {
				t.Fatalf("job %d never left", job)
			}
		}
		if groups, faces := q.Len(); groups != 0 || faces != 0 {
			t.Fatalf("drained queue holds %d groups, %d faces", groups, faces)
		}
	})
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// digestOf stands in for a tag's digest in these tests: the queue only
// compares keys.
func digestOf(s string) core.Digest {
	var d core.Digest
	copy(d[:], s)
	return d
}

// TestVerifyQueueAllocs: on a warm queue a job that leads allocates
// nothing (the key is the tag's fixed-size digest; groups and slices are
// reused), a follower nothing, and neither does a face that comes back
// after idling (its queue is kept for reuse).
func TestVerifyQueueAllocs(t *testing.T) {
	q := NewVerifyQueue[int](0, core.Config{})
	// Keep faces A and B charged: a running leader on A, its follower on B.
	q.Admit(-1, faceA, digestOf("pin"))
	q.Next()
	q.Admit(-2, faceB, digestOf("pin"))
	key := digestOf("tag")
	var buf [4]int
	cycle := func() {
		q.Admit(1, faceA, key)
		q.Admit(2, faceB, key)
		q.Next()
		q.Close(1, true, buf[:0]) // returns 2, charged to face B
		q.Release(faceA)
		q.Release(faceB)
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("a leader and its follower allocate %.1f/cycle, want 0", allocs)
	}
	// Face C is charged only while its job runs: each cycle it goes idle
	// and comes back.
	idle := func() {
		q.Admit(3, faceC, key)
		q.Next()
		q.Close(3, true, buf[:0])
		q.Release(faceC)
	}
	idle()
	if _, faces := q.Len(); faces != 2 {
		t.Fatalf("%d charged faces after face C went idle, want 2", faces)
	}
	if allocs := testing.AllocsPerRun(100, idle); allocs != 0 {
		t.Errorf("a face back from idle allocates %.1f/cycle, want 0", allocs)
	}
}
