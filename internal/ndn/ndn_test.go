package ndn

import (
	"bytes"
	"container/list"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/pki"
)

// --- FIB ---------------------------------------------------------------------

func TestFIBLongestPrefixMatch(t *testing.T) {
	f := NewFIB()
	f.Insert(names.MustParse("/"), 1)
	f.Insert(names.MustParse("/prov0"), 2)
	f.Insert(names.MustParse("/prov0/obj1"), 3)

	cases := []struct {
		name string
		want FaceID
	}{
		{"/prov0/obj1/chunk0", 3},
		{"/prov0/obj2/chunk0", 2},
		{"/prov1/obj1", 1},
		{"/", 1},
	}
	for _, tc := range cases {
		got, ok := f.Lookup(names.MustParse(tc.name))
		if !ok || got != tc.want {
			t.Errorf("Lookup(%q) = %v,%v, want %v", tc.name, got, ok, tc.want)
		}
	}
}

func TestFIBNoDefaultRoute(t *testing.T) {
	f := NewFIB()
	f.Insert(names.MustParse("/prov0"), 2)
	if _, ok := f.Lookup(names.MustParse("/prov1/x")); ok {
		t.Error("lookup without covering prefix should miss")
	}
}

func TestFIBReplaceAndRemove(t *testing.T) {
	f := NewFIB()
	p := names.MustParse("/prov0")
	f.Insert(p, 1)
	f.Insert(p, 2)
	if got, _ := f.Lookup(p); got != 2 {
		t.Errorf("replaced route = %v", got)
	}
	if f.Len() != 1 {
		t.Errorf("Len = %d", f.Len())
	}
	if !f.Remove(p) {
		t.Error("Remove existing returned false")
	}
	if f.Remove(p) {
		t.Error("Remove missing returned true")
	}
	if _, ok := f.Lookup(p); ok {
		t.Error("removed route still matches")
	}
}

// fibNaiveLookup is the reference LPM for the property test.
func fibNaiveLookup(routes map[string]FaceID, name names.Name) (FaceID, bool) {
	best, bestLen, found := FaceNone, -1, false
	for prefix, face := range routes {
		p := names.MustParse(prefix)
		if name.HasPrefix(p) && p.Len() > bestLen {
			best, bestLen, found = face, p.Len(), true
		}
	}
	return best, found
}

func TestPropertyFIBMatchesNaive(t *testing.T) {
	comps := []string{"a", "b", "c"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fib := NewFIB()
		routes := make(map[string]FaceID)
		for i := 0; i < 10; i++ {
			depth := r.Intn(4)
			parts := make([]string, depth)
			for j := range parts {
				parts[j] = comps[r.Intn(len(comps))]
			}
			prefix := names.MustNew(parts...)
			face := FaceID(r.Intn(5))
			fib.Insert(prefix, face)
			routes[prefix.Key()] = face
		}
		for i := 0; i < 20; i++ {
			depth := r.Intn(5)
			parts := make([]string, depth)
			for j := range parts {
				parts[j] = comps[r.Intn(len(comps))]
			}
			name := names.MustNew(parts...)
			gotFace, gotOK := fib.Lookup(name)
			wantFace, wantOK := fibNaiveLookup(routes, name)
			if gotOK != wantOK || (gotOK && gotFace != wantFace) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// --- PIT ---------------------------------------------------------------------

func pitTime(sec int64) time.Time { return time.Unix(sec, 0) }

// pitConstructors are the PIT's constructors: NewPIT, and NewShardedPIT,
// the name the live-path benchmark builds its table with. Both must build
// the one table with the same rules.
var pitConstructors = []struct {
	name string
	new  func() *PIT
}{
	{"NewPIT", NewPIT},
	{"NewShardedPIT", NewShardedPIT},
}

// forEachPIT runs body against a fresh table from each constructor.
func forEachPIT(t *testing.T, body func(t *testing.T, p *PIT)) {
	for _, mk := range pitConstructors {
		t.Run(mk.name, func(t *testing.T) { body(t, mk.new()) })
	}
}

// TestPITAdmit walks the one admission rule step by step on one name.
func TestPITAdmit(t *testing.T) {
	name := names.MustParse("/prov0/obj/c0")
	steps := []struct {
		what     string
		rec      PITRecord
		now, exp int64
		outcome  AdmitOutcome
		outFace  FaceID
		setOut   FaceID // recorded after the step when not FaceNone
	}{
		{"new", PITRecord{InFace: 1, Nonce: 10}, 1, 5, PITNew, FaceNone, FaceNone},
		{"aggregated while the primary forward is in flight", PITRecord{InFace: 2, Nonce: 11}, 2, 6, PITAggregated, FaceNone, 7},
		{"duplicate nonce", PITRecord{InFace: 3, Nonce: 11}, 2, 9, PITDuplicate, FaceNone, FaceNone},
		{"aggregated, out-face reported", PITRecord{InFace: 3, Nonce: 12}, 3, 4, PITAggregated, 7, FaceNone},
		// Live at 5: step 2 extended the lifetime to 6, step 4's
		// shorter one did not cut it, the duplicate's 9 was not taken.
		{"lifetime extended", PITRecord{InFace: 4, Nonce: 13}, 5, 6, PITAggregated, 7, FaceNone},
		{"expired leftover replaced", PITRecord{InFace: 5, Nonce: 10}, 6, 10, PITNew, FaceNone, FaceNone},
	}
	forEachPIT(t, func(t *testing.T, p *PIT) {
		for _, st := range steps {
			outcome, outFace := p.Admit(name, st.rec, pitTime(st.now), pitTime(st.exp))
			if outcome != st.outcome || outFace != st.outFace {
				t.Fatalf("%s: Admit = (%v, %v), want (%v, %v)", st.what, outcome, outFace, st.outcome, st.outFace)
			}
			if st.setOut != FaceNone && !p.SetOutFace(name, st.setOut) {
				t.Fatalf("%s: SetOutFace found no entry", st.what)
			}
		}
		if created, aggregated, _ := p.Stats(); created != 2 || aggregated != 3 {
			t.Errorf("stats = %d created, %d aggregated; want 2, 3", created, aggregated)
		}
		e, ok := p.Consume(name)
		if !ok {
			t.Fatal("entry missing")
		}
		last := steps[len(steps)-1]
		if len(e.Records) != 1 || e.Records[0] != last.rec || !e.Expires.Equal(pitTime(last.exp)) || e.OutFace != FaceNone {
			t.Errorf("replacement entry = %+v, want only the last record, fresh lifetime, no out-face", e)
		}
		if p.SetOutFace(name, 1) {
			t.Error("SetOutFace reported an entry that does not exist")
		}
	})
}

func TestPITAggregatedTuplesPreserved(t *testing.T) {
	forEachPIT(t, func(t *testing.T, p *PIT) {
		name := names.MustParse("/prov0/obj/c0")
		recs := []PITRecord{
			{InFace: 1, Nonce: 10, Arrived: pitTime(1)},
			{InFace: 2, Nonce: 11, Flag: 0.5, Arrived: pitTime(2)},
		}
		for _, r := range recs {
			p.Admit(name, r, pitTime(2), pitTime(6))
		}
		e, _ := p.Consume(name)
		if e == nil || len(e.Records) != 2 || e.Records[0] != recs[0] || e.Records[1] != recs[1] {
			t.Errorf("aggregated tuples <T, F, InFace> not preserved in arrival order: %+v", e)
		}
	})
}

func TestPITStats(t *testing.T) {
	forEachPIT(t, func(t *testing.T, p *PIT) {
		name := names.MustParse("/prov0/obj/c0")
		p.Admit(name, PITRecord{Nonce: 1}, pitTime(1), pitTime(5))
		p.Admit(name, PITRecord{Nonce: 2}, pitTime(1), pitTime(5))
		p.Admit(name, PITRecord{Nonce: 2}, pitTime(1), pitTime(5)) // duplicate: not counted
		p.Admit(names.MustParse("/prov0/obj/c1"), PITRecord{Nonce: 3}, pitTime(1), pitTime(5))
		if created, aggregated, _ := p.Stats(); created != 2 || aggregated != 1 {
			t.Errorf("stats = %d created, %d aggregated; want 2, 1", created, aggregated)
		}
	})
}

// TestPITAdmitAllocs: a fresh entry is one allocation — its first record
// rides inline — under the table's lock.
func TestPITAdmitAllocs(t *testing.T) {
	forEachPIT(t, func(t *testing.T, p *PIT) {
		name := names.MustParse("/prov0/obj/c0")
		rec := PITRecord{InFace: 1, Nonce: 10}
		allocs := testing.AllocsPerRun(1000, func() {
			if outcome, _ := p.Admit(name, rec, pitTime(1), pitTime(5)); outcome != PITNew {
				t.Fatalf("Admit = %v, want PITNew", outcome)
			}
			if e, ok := p.Consume(name); !ok || len(e.Records) != 1 || e.Records[0] != rec {
				t.Fatalf("consumed %+v", e)
			}
		})
		if allocs > 1 {
			t.Errorf("admitting a new entry allocates %.1f/op, want <= 1", allocs)
		}
	})
}

func TestPITConsume(t *testing.T) {
	forEachPIT(t, func(t *testing.T, p *PIT) {
		name := names.MustParse("/prov0/obj/c0")
		p.Admit(name, PITRecord{InFace: 1}, pitTime(1), pitTime(5))
		e, ok := p.Consume(name)
		if !ok || e == nil {
			t.Fatal("consume failed")
		}
		if p.Len() != 0 {
			t.Error("consumed entry still present")
		}
		if _, ok := p.Consume(name); ok {
			t.Error("double consume succeeded")
		}
		// ConsumeFrom takes the entry only on the face it was forwarded to.
		if recs, ok := p.ConsumeFrom(name, 7, nil); ok || len(recs) != 0 {
			t.Error("ConsumeFrom found an entry that does not exist")
		}
		first, second := PITRecord{InFace: 1, Nonce: 1}, PITRecord{InFace: 2, Nonce: 2, Flag: 0.5}
		p.Admit(name, first, pitTime(1), pitTime(5))
		p.Admit(name, second, pitTime(1), pitTime(5))
		if recs, ok := p.ConsumeFrom(name, 7, nil); ok || len(recs) != 0 {
			t.Error("ConsumeFrom took an entry that was never forwarded")
		}
		p.SetOutFace(name, 7)
		if recs, ok := p.ConsumeFrom(name, 1, nil); ok || len(recs) != 0 || p.Len() != 1 {
			t.Errorf("ConsumeFrom on the wrong face: ok=%v, %d entries left, want the entry kept", ok, p.Len())
		}
		// The requesters are appended to the caller's slice, primary first.
		var scratch [4]PITRecord
		recs, ok := p.ConsumeFrom(name, 7, scratch[:0])
		if !ok || len(recs) != 2 || recs[0] != first || recs[1] != second || p.Len() != 0 {
			t.Errorf("ConsumeFrom on the out-face: ok=%v records=%+v, %d entries left", ok, recs, p.Len())
		}
		if &recs[0] != &scratch[0] {
			t.Error("ConsumeFrom did not use the caller's slice")
		}
	})
}

// TestPITAdmitConsumeAllocs: an entry ConsumeFrom emptied is the next
// Admit's, so the live plane's admit → set-out-face → consume-from cycle
// allocates nothing once the table has seen its first Data.
func TestPITAdmitConsumeAllocs(t *testing.T) {
	forEachPIT(t, func(t *testing.T, p *PIT) {
		name := names.MustParse("/prov0/obj/c0")
		rec := PITRecord{InFace: 1, Nonce: 10}
		var scratch [4]PITRecord
		cycle := func() {
			if outcome, _ := p.Admit(name, rec, pitTime(1), pitTime(5)); outcome != PITNew {
				t.Fatalf("Admit = %v, want PITNew", outcome)
			}
			p.SetOutFace(name, 7)
			if recs, ok := p.ConsumeFrom(name, 7, scratch[:0]); !ok || len(recs) != 1 || recs[0] != rec {
				t.Fatalf("consumed %+v, %v", recs, ok)
			}
		}
		cycle() // warm the free list
		if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
			t.Errorf("an admit/consume-from cycle allocates %.1f/op, want 0", allocs)
		}
	})
}

// TestPITRecycledEntryIsFresh: an entry that comes back from ConsumeFrom
// carries nothing of its previous use — not its aggregated records, its
// out-face, its lifetime or its name — and an entry handed to a caller is
// never reused under it.
func TestPITRecycledEntryIsFresh(t *testing.T) {
	forEachPIT(t, func(t *testing.T, p *PIT) {
		a, b := names.MustParse("/prov0/obj/a"), names.MustParse("/prov0/obj/b")
		for n := uint64(1); n <= 3; n++ {
			p.Admit(a, PITRecord{InFace: FaceID(n), Nonce: n}, pitTime(1), pitTime(9))
		}
		p.SetOutFace(a, 7)
		if recs, ok := p.ConsumeFrom(a, 7, nil); !ok || len(recs) != 3 {
			t.Fatalf("consumed %+v, %v", recs, ok)
		}
		rec := PITRecord{InFace: 4, Nonce: 4}
		if outcome, out := p.Admit(b, rec, pitTime(2), pitTime(5)); outcome != PITNew || out != FaceNone {
			t.Fatalf("Admit = %v, %v", outcome, out)
		}
		held, ok := p.Consume(b)
		if !ok || !held.Name.Equal(b) || len(held.Records) != 1 || held.Records[0] != rec ||
			held.OutFace != FaceNone || !held.Expires.Equal(pitTime(5)) {
			t.Fatalf("recycled entry = %+v, want only the new admission", held)
		}
		// held is the caller's now: further traffic must not touch it.
		p.Admit(a, PITRecord{InFace: 5, Nonce: 5}, pitTime(3), pitTime(9))
		p.SetOutFace(a, 7)
		p.ConsumeFrom(a, 7, nil)
		p.Admit(a, PITRecord{InFace: 6, Nonce: 6}, pitTime(3), pitTime(9))
		if !held.Name.Equal(b) || len(held.Records) != 1 || held.Records[0] != rec {
			t.Errorf("an entry handed out by Consume changed under its holder: %+v", held)
		}
	})
}

func TestPITExpiry(t *testing.T) {
	forEachPIT(t, func(t *testing.T, p *PIT) {
		p.Admit(names.MustParse("/a/1"), PITRecord{}, pitTime(1), pitTime(5))
		p.Admit(names.MustParse("/a/2"), PITRecord{}, pitTime(1), pitTime(10))
		expired := p.ExpireBefore(pitTime(7))
		if len(expired) != 1 || !expired[0].Name.Equal(names.MustParse("/a/1")) {
			t.Errorf("expired = %v", expired)
		}
		if p.Len() != 1 {
			t.Errorf("remaining = %d", p.Len())
		}
		if _, _, expCount := p.Stats(); expCount != 1 {
			t.Errorf("expired count = %d", expCount)
		}
	})
}

func TestPITNonceDedup(t *testing.T) {
	e := &PITEntry{Records: []PITRecord{{Nonce: 42}}}
	if !e.HasNonce(42) {
		t.Error("nonce not recorded")
	}
	if e.HasNonce(43) {
		t.Error("phantom nonce")
	}
}

func TestPropertyPITRecordCount(t *testing.T) {
	// Total records across the PIT equals admitted records minus
	// consumed ones.
	f := func(ops []uint8) bool {
		p := NewPIT()
		inserted, removed := 0, 0
		nms := []names.Name{names.MustParse("/a"), names.MustParse("/b"), names.MustParse("/c")}
		for i, op := range ops {
			n := nms[int(op)%len(nms)]
			switch {
			case op%3 != 0:
				p.Admit(n, PITRecord{Nonce: uint64(i)}, pitTime(1), pitTime(100))
				inserted++
			default:
				if e, ok := p.Consume(n); ok {
					removed += len(e.Records)
				}
			}
		}
		live := 0
		for _, n := range nms {
			if e, ok := p.Consume(n); ok {
				live += len(e.Records)
			}
		}
		return live == inserted-removed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// --- CS ----------------------------------------------------------------------

func chunk(name names.Name) *core.Content {
	return &core.Content{
		Meta:    core.ContentMeta{Name: name, Level: 1},
		Payload: []byte("payload"),
	}
}

// csName is the i-th name the content-store tests cache.
func csName(i int) names.Name { return names.MustParse(fmt.Sprintf("/a/%d", i)) }

// csConstructors are the content store's constructors: NewCS, and
// NewShardedCS, the name the live-path benchmark builds its store with.
// Both must build the one exact LRU of the capacity asked for.
var csConstructors = []struct {
	name string
	new  func(capacity int) *CS
}{
	{"NewCS", NewCS},
	{"NewShardedCS", NewShardedCS},
}

// forEachCS runs body against a fresh store of the given capacity from
// each constructor.
func forEachCS(t *testing.T, capacity int, body func(t *testing.T, cs *CS)) {
	for _, mk := range csConstructors {
		t.Run(mk.name, func(t *testing.T) { body(t, mk.new(capacity)) })
	}
}

func TestCSInsertLookup(t *testing.T) {
	forEachCS(t, 2, func(t *testing.T, cs *CS) {
		cs.Insert(chunk(csName(1)))
		if got, ok := cs.Lookup(csName(1)); !ok || got == nil {
			t.Fatal("lookup after insert failed")
		}
		if _, ok := cs.Lookup(csName(2)); ok {
			t.Error("phantom hit")
		}
		hits, misses, _ := cs.Stats()
		if hits != 1 || misses != 1 {
			t.Errorf("stats = %d/%d", hits, misses)
		}
	})
}

func TestCSLRUEviction(t *testing.T) {
	forEachCS(t, 2, func(t *testing.T, cs *CS) {
		cs.Insert(chunk(csName(1)))
		cs.Insert(chunk(csName(2)))
		// Touch 1 so 2 becomes LRU.
		cs.Lookup(csName(1))
		cs.Insert(chunk(csName(3)))
		if cs.Contains(csName(2)) {
			t.Error("LRU entry survived eviction")
		}
		if !cs.Contains(csName(1)) || !cs.Contains(csName(3)) {
			t.Error("wrong entry evicted")
		}
		if _, _, evicted := cs.Stats(); evicted != 1 {
			t.Errorf("evicted = %d", evicted)
		}
	})
}

func TestCSReinsertRefreshes(t *testing.T) {
	forEachCS(t, 2, func(t *testing.T, cs *CS) {
		cs.Insert(chunk(csName(1)))
		cs.Insert(chunk(csName(2)))
		cs.Insert(chunk(csName(1))) // refresh, 2 now LRU
		cs.Insert(chunk(csName(3)))
		if cs.Contains(csName(2)) {
			t.Error("refreshed entry should not be LRU")
		}
		if cs.Len() != 2 {
			t.Errorf("Len = %d", cs.Len())
		}
	})
}

// TestCSHoldsItsCapacity: a store built for c chunks holds exactly c
// once more than c distinct names have been inserted — no more, no less.
func TestCSHoldsItsCapacity(t *testing.T) {
	for _, mk := range csConstructors {
		for _, capacity := range []int{1, 10, 100, 1000} {
			t.Run(fmt.Sprintf("%s/%d", mk.name, capacity), func(t *testing.T) {
				cs := mk.new(capacity)
				for i := 0; i < 20000; i++ {
					cs.Insert(chunk(csName(i)))
				}
				if got := cs.Len(); got != capacity {
					t.Errorf("Len = %d after 20000 distinct inserts, want %d", got, capacity)
				}
			})
		}
	}
}

// TestCSExactLRUAtCapacity: a store of 64 given 64 names holds all 64;
// after name 0 is touched, a 65th name evicts name 1, the least recently
// used, and keeps name 0.
func TestCSExactLRUAtCapacity(t *testing.T) {
	const capacity = 64
	for _, mk := range csConstructors {
		t.Run(mk.name, func(t *testing.T) {
			cs := mk.new(capacity)
			for i := 0; i < capacity; i++ {
				cs.Insert(chunk(csName(i)))
			}
			if got := cs.Len(); got != capacity {
				t.Fatalf("Len = %d after %d distinct inserts, want %d", got, capacity, capacity)
			}
			if _, ok := cs.Lookup(csName(0)); !ok {
				t.Fatal("name 0 missing from a store that holds every name")
			}
			cs.Insert(chunk(csName(capacity)))
			if cs.Contains(csName(1)) {
				t.Error("name 1, the least recently used, survived the 65th insert")
			}
			if !cs.Contains(csName(0)) || !cs.Contains(csName(capacity)) {
				t.Error("the 65th insert evicted the touched name or was not kept")
			}
			if got := cs.Len(); got != capacity {
				t.Errorf("Len = %d after the 65th insert, want %d", got, capacity)
			}
		})
	}
}

func TestCSZeroCapacity(t *testing.T) {
	forEachCS(t, 0, func(t *testing.T, cs *CS) {
		cs.Insert(chunk(csName(1)))
		if cs.Len() != 0 {
			t.Error("zero-capacity CS cached a chunk")
		}
		if _, ok := cs.Lookup(csName(1)); ok {
			t.Error("zero-capacity CS hit")
		}
	})
}

func TestPropertyCSNeverExceedsCapacity(t *testing.T) {
	f := func(inserts []uint8, capRaw uint8) bool {
		capacity := int(capRaw%10) + 1
		cs := NewCS(capacity)
		for _, i := range inserts {
			cs.Insert(&core.Content{Meta: core.ContentMeta{
				Name: names.MustParse("/x").MustAppend(string(rune('a' + i%26))),
			}})
		}
		return cs.Len() <= capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// listCS is the container/list LRU the content store was before its
// recency ring became intrusive, kept as the reference the simulator's
// golden rests on: same eviction order, same counters.
type listCS struct {
	capacity              int
	ll                    *list.List // of *core.Content
	index                 map[string]*list.Element
	hits, misses, evicted uint64
}

func (m *listCS) insert(c *core.Content) {
	k := c.Meta.Name.Key()
	if el, ok := m.index[k]; ok {
		m.ll.MoveToFront(el)
		el.Value = c
		return
	}
	m.index[k] = m.ll.PushFront(c)
	if m.ll.Len() > m.capacity {
		oldest := m.ll.Back()
		m.ll.Remove(oldest)
		delete(m.index, oldest.Value.(*core.Content).Meta.Name.Key())
		m.evicted++
	}
}

func (m *listCS) lookup(name names.Name) (*core.Content, bool) {
	el, ok := m.index[name.Key()]
	if !ok {
		m.misses++
		return nil, false
	}
	m.ll.MoveToFront(el)
	m.hits++
	return el.Value.(*core.Content), true
}

// TestCSMatchesListModel drives the store and the reference through
// 20 000 seeded random steps and compares everything observable after
// each: the outcome, Len, Stats and the whole recency order. The store
// keeps copies, so chunks compare by their bytes, and each insert
// carries a payload of its own.
func TestCSMatchesListModel(t *testing.T) {
	const capacity, universe, steps = 16, 48, 20000
	cs := NewCS(capacity)
	model := &listCS{capacity: capacity, ll: list.New(), index: map[string]*list.Element{}}
	nm := make([]names.Name, universe)
	for i := range nm {
		nm[i] = names.MustParse(fmt.Sprintf("/prov0/obj/c%d", i))
	}
	r := rand.New(rand.NewSource(22))
	for step := 0; step < steps; step++ {
		n := nm[r.Intn(universe)]
		switch op := r.Intn(10); {
		case op < 5:
			c := chunk(n)
			c.Payload = []byte(fmt.Sprint(step))
			cs.Insert(c)
			model.insert(c)
		case op < 9:
			got, ok := cs.Lookup(n)
			want, wantOK := model.lookup(n)
			if ok != wantOK || ok && !sameChunk(got, want) {
				t.Fatalf("step %d: Lookup(%s) = %+v, %v; model %+v, %v", step, n, got, ok, want, wantOK)
			}
		default:
			_, want := model.index[n.Key()]
			if got := cs.Contains(n); got != want {
				t.Fatalf("step %d: Contains(%s) = %v, model %v", step, n, got, want)
			}
		}
		h, m, e := cs.Stats()
		if cs.Len() != model.ll.Len() || len(cs.Names()) != model.ll.Len() || h != model.hits || m != model.misses || e != model.evicted {
			t.Fatalf("step %d: Len %d Stats %d/%d/%d, model Len %d Stats %d/%d/%d",
				step, cs.Len(), h, m, e, model.ll.Len(), model.hits, model.misses, model.evicted)
		}
		order := csOrder(cs)
		if len(order) != model.ll.Len() {
			t.Fatalf("step %d: %d items in recency order, model holds %d", step, len(order), model.ll.Len())
		}
		for el, i := model.ll.Front(), 0; el != nil; el, i = el.Next(), i+1 {
			if want := el.Value.(*core.Content); !sameChunk(order[i], want) {
				t.Fatalf("step %d: recency order diverges from the model at place %d (%s)", step, i, want.Meta.Name)
			}
		}
	}
}

// csOrder returns the store's contents from most to least recently used.
// It is the one place TestCSMatchesListModel reads the store's insides,
// so the test runs unchanged against any recency structure given its walk.
func csOrder(c *CS) []*core.Content {
	var out []*core.Content
	for it := c.root.next; it != &c.root; it = it.next {
		out = append(out, &it.content)
	}
	return out
}

// sameChunk reports whether two contents hold the same chunk.
func sameChunk(a, b *core.Content) bool {
	return a.Meta.Name.Equal(b.Meta.Name) && a.Meta.Level == b.Meta.Level &&
		a.Meta.ProviderKey.Equal(b.Meta.ProviderKey) &&
		bytes.Equal(a.Payload, b.Payload) && bytes.Equal(a.Signature, b.Signature)
}

// TestCSInsertAtCapacityAllocs: a full store rewrites its least recently
// used item in place, so an insert that evicts allocates nothing.
func TestCSInsertAtCapacityAllocs(t *testing.T) {
	forEachCS(t, 4, func(t *testing.T, cs *CS) {
		var chunks [8]*core.Content
		for i := range chunks {
			chunks[i] = chunk(csName(i))
			cs.Insert(chunks[i])
		}
		_, _, before := cs.Stats()
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			cs.Insert(chunks[i%len(chunks)])
			i++
		})
		if allocs != 0 {
			t.Errorf("an insert into a full store allocates %.1f/op, want 0", allocs)
		}
		if _, _, evicted := cs.Stats(); evicted-before != 1001 {
			t.Errorf("%d of 1001 inserts evicted, want all", evicted-before)
		}
	})
}

// wireChunk is a chunk as a reader decodes it off the wire: holding its
// encoding, with a 1 KiB payload of fill bytes.
func wireChunk(t testing.TB, name names.Name, fill byte) *core.Content {
	t.Helper()
	enc, err := core.EncodeContent(&core.Content{
		Meta:      core.ContentMeta{Name: name, Level: 2, ProviderKey: names.MustParse("/prov0/KEY/1")},
		Payload:   bytes.Repeat([]byte{fill}, 1024),
		Signature: bytes.Repeat([]byte{fill}, 64),
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.DecodeContent(enc)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCSInsertLookupAllocs is TestCSInsertAtCapacityAllocs for chunks
// as a reader decodes them, 1 KiB each with their encoding, which the
// store copies into the buffer of the item it rewrites; and a hit copied
// into a reused destination allocates nothing either.
func TestCSInsertLookupAllocs(t *testing.T) {
	forEachCS(t, 4, func(t *testing.T, cs *CS) {
		var chunks [8]*core.Content
		for i := range chunks {
			chunks[i] = wireChunk(t, csName(i), byte(i))
			cs.Insert(chunks[i])
		}
		_, _, before := cs.Stats()
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			cs.Insert(chunks[i%len(chunks)])
			i++
		})
		if allocs != 0 {
			t.Errorf("an insert into a full store allocates %.1f/op, want 0", allocs)
		}
		if _, _, evicted := cs.Stats(); evicted-before != 1001 {
			t.Errorf("%d of 1001 inserts evicted, want all", evicted-before)
		}

		for _, c := range chunks[:4] {
			cs.Insert(c)
		}
		var dst core.Content
		allocs = testing.AllocsPerRun(1000, func() {
			if _, ok := cs.LookupInto(chunks[i%4].Meta.Name, &dst); !ok {
				t.Fatalf("chunk %d not cached", i%4)
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("a hit copied into a reused Content allocates %.1f/op, want 0", allocs)
		}
	})
}

// TestCSCopyOutSurvivesEviction: the store owns its bytes. A copied-out
// hit stays byte-identical after its slot is evicted and rewritten with
// another chunk's bytes, and a chunk's source changed after Insert leaves
// the stored copy as it was.
func TestCSCopyOutSurvivesEviction(t *testing.T) {
	forEachCS(t, 1, func(t *testing.T, cs *CS) {
		src := wireChunk(t, csName(1), 0xAA)
		want, err := core.EncodeContent(src)
		if err != nil {
			t.Fatal(err)
		}
		want = bytes.Clone(want)
		cs.Insert(src)
		src.Payload[0] ^= 0xFF // the caller's copy, not the store's
		var dst core.Content
		got, ok := cs.LookupInto(csName(1), &dst)
		if !ok || got != &dst {
			t.Fatalf("LookupInto = %p, %v; want the destination %p", got, ok, &dst)
		}
		fresh, ok := cs.Lookup(csName(1))
		if !ok || fresh == &dst {
			t.Fatalf("Lookup = %p, %v; want a Content of its own", fresh, ok)
		}
		cs.Insert(wireChunk(t, csName(2), 0x55)) // evicts 1, rewriting its slot
		if cs.Contains(csName(1)) {
			t.Fatal("chunk 1 still cached in a one-chunk store")
		}
		for _, c := range []*core.Content{&dst, fresh} {
			enc, err := core.EncodeContent(c)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, want) || !c.Meta.Name.Equal(csName(1)) ||
				!bytes.Equal(c.Payload, bytes.Repeat([]byte{0xAA}, 1024)) ||
				!bytes.Equal(c.Signature, bytes.Repeat([]byte{0xAA}, 64)) {
				t.Fatalf("copied-out hit changed after its slot was rewritten: %s, payload[0] %#x", c.Meta.Name, c.Payload[0])
			}
		}
	})
}

// --- Packets -----------------------------------------------------------------

func TestWireSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	signer, err := pki.GenerateFast(rng, names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	tag, err := core.IssueTag(signer, names.MustParse("/u/alice/KEY/1"), 1, 0, pitTime(100))
	if err != nil {
		t.Fatal(err)
	}
	name := names.MustParse("/prov0/obj/c0")

	bare := &Interest{Name: name, Kind: KindContent}
	tagged := &Interest{Name: name, Kind: KindContent, Tag: tag}
	if tagged.WireSize() <= bare.WireSize() {
		t.Error("tag should add wire size")
	}
	if diff := tagged.WireSize() - bare.WireSize(); diff != tag.Size() {
		t.Errorf("tag overhead = %d, want %d", diff, tag.Size())
	}

	d := &Data{Name: name, Content: &core.Content{
		Meta:    core.ContentMeta{Name: name},
		Payload: make([]byte, 1024),
	}}
	if d.WireSize() < 1024 {
		t.Errorf("data wire size %d smaller than payload", d.WireSize())
	}
	dTagged := *d
	dTagged.Tag = tag
	if dTagged.WireSize() != d.WireSize()+tag.Size() {
		t.Error("data tag overhead mismatch")
	}
}
