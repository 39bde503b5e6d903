package intern

import (
	"bytes"
	"errors"
	"hash/maphash"
	"math/rand/v2"
	"strconv"
	"sync"
	"testing"
)

func decodeLen(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, errors.New("empty")
	}
	return len(b), nil
}

// entries counts what the cache holds, and checks that every shard's
// index and slot array describe each other and that the table's count is
// their sum.
func entries[V any](t *testing.T, c *Cache[V]) int {
	t.Helper()
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n := len(s.slots)
		if len(s.index) != n {
			t.Fatalf("shard %d: %d slots, %d index entries", i, n, len(s.index))
		}
		for j, sl := range s.slots {
			if got, ok := s.index[sl.key]; !ok || int(got) != j {
				t.Fatalf("shard %d slot %d holds %q, index says %d, %v", i, j, sl.key, got, ok)
			}
		}
		s.mu.Unlock()
		total += n
	}
	if n := int(c.entries.Load()); n != total {
		t.Fatalf("the table counts %d entries, its shards hold %d", n, total)
	}
	return total
}

// TestCacheBound asserts the bound itself: through 32 768 distinct keys
// the cache never holds more than Shards x ShardCap entries in all, it
// ends exactly full, every key resolves to its own value, and a key
// resolved again right away is served from the table.
func TestCacheBound(t *testing.T) {
	var c Cache[int]
	decodes := 0
	counted := func(b []byte) (int, error) { decodes++; return decodeLen(b) }
	const keys = 4 * Shards * ShardCap
	for i := 0; i < keys; i++ {
		key := []byte("/prov0/obj/chunk" + strconv.Itoa(i))
		v, err := c.Resolve(key, counted)
		if err != nil || v != len(key) {
			t.Fatalf("key %d: got %d, %v", i, v, err)
		}
		before := decodes
		if v, err = c.Resolve(key, counted); err != nil || v != len(key) || decodes != before {
			t.Fatalf("key %d not served from the table: %d, %v, %d decodes", i, v, err, decodes-before)
		}
		if i%257 == 0 || i == keys-1 {
			if total := entries(t, &c); total > Shards*ShardCap || total > i+1 {
				t.Fatalf("after %d keys: %d entries, bound %d x %d", i+1, total, Shards, ShardCap)
			}
		}
	}
	if total := entries(t, &c); total != Shards*ShardCap {
		t.Errorf("%d entries after %d distinct keys, want the table full at %d", total, keys, Shards*ShardCap)
	}
	if decodes != keys {
		t.Errorf("%d decodes for %d distinct keys", decodes, keys)
	}
}

// TestCacheScanPastBound walks a working set slightly larger than the
// table in a cycle — what a chunk scan does to the name tables. Past its
// bound the table must degrade by a slope: the overfull shards re-decode
// a few keys per pass, not every key of every pass (38 % at a wholesale
// clear, 100 % under LRU). The shard hash is seeded per process, so the
// deal — 516 keys a shard, give or take 22 — and with it the ratio differ
// from run to run: 0.025 to 0.054 over 60 runs.
func TestCacheScanPastBound(t *testing.T) {
	var c Cache[int]
	const keys = Shards*ShardCap + 64
	keyOf := make([][]byte, keys)
	for i := range keyOf {
		keyOf[i] = []byte("/prov0/obj/chunk" + strconv.Itoa(i))
	}
	decodes := 0
	counted := func(b []byte) (int, error) { decodes++; return decodeLen(b) }
	const warm, measured = 2, 6
	for cycle := 0; cycle < warm+measured; cycle++ {
		if cycle == warm {
			decodes = 0
		}
		for _, key := range keyOf {
			if v, err := c.Resolve(key, counted); err != nil || v != len(key) {
				t.Fatalf("key %s: got %d, %v", key, v, err)
			}
		}
	}
	if ratio := float64(decodes) / (measured * keys); ratio >= 0.10 {
		t.Errorf("scan over %d keys (bound %d): miss ratio %.3f from the third cycle on, want < 0.10", keys, Shards*ShardCap, ratio)
	}
}

// TestCacheCyclicScanAtBound is full_path_udp's name scan at its worst:
// as many random keys as the table holds, scanned in a cycle. The bound
// is the table's, not a shard's, so however the seeded hash deals the
// keys over the shards every key stays resident: the second and third
// passes decode nothing. (Under a per-shard bound the shards dealt more
// than ShardCap keys re-decoded some on every pass.)
func TestCacheCyclicScanAtBound(t *testing.T) {
	var c Cache[int]
	r := rand.New(rand.NewPCG(1, 2))
	keys := make([][]byte, Shards*ShardCap)
	for i := range keys {
		keys[i] = []byte("/prov0/obj/chunk" + strconv.FormatUint(r.Uint64(), 36))
	}
	decodes := 0
	counted := func(b []byte) (int, error) { decodes++; return decodeLen(b) }
	for pass := 1; pass <= 3; pass++ {
		decodes = 0
		for _, key := range keys {
			if v, err := c.Resolve(key, counted); err != nil || v != len(key) {
				t.Fatalf("key %s: got %d, %v", key, v, err)
			}
		}
		want := 0
		if pass == 1 {
			want = len(keys)
		}
		if decodes != want {
			t.Errorf("pass %d over %d keys (bound %d): %d decodes, want %d", pass, len(keys), Shards*ShardCap, decodes, want)
		}
	}
}

// TestCacheScanPollution is what tag_churn_tcp does to the tag table:
// 2048 legitimate keys in a cycle, every 16th resolve a forged key that
// never repeats. Once the forged keys have filled the table, the
// legitimate keys they displace must cost no more re-decodes per resolve
// than dropping a full shard wholesale did (0.020).
func TestCacheScanPollution(t *testing.T) {
	var c Cache[int]
	const legit = 2048
	legitKey := make([][]byte, legit)
	for i := range legitKey {
		legitKey[i] = []byte("tag/legit/" + strconv.Itoa(i))
	}
	redecodes := 0
	counted := func(b []byte) (int, error) { redecodes++; return decodeLen(b) }
	const fill = 16 * Shards * ShardCap // forged keys alone fill the table in this many resolves
	const measured = 4 * fill
	for i := 0; i < fill+measured; i++ {
		if i == fill {
			redecodes = 0
		}
		if i%16 == 15 {
			c.Resolve([]byte("tag/forged/"+strconv.Itoa(i)), decodeLen) //nolint:errcheck
			continue
		}
		c.Resolve(legitKey[i%legit], counted) //nolint:errcheck
	}
	if per := float64(redecodes) / measured; per > 0.025 {
		t.Errorf("%.4f legitimate re-decodes per resolve under 1-in-16 forged keys, want <= 0.025", per)
	}
}

// TestCacheRacingMissesDisplaceOne: readers that miss the same key all
// decode it, but only the first insert lands — the rest find the key
// resident under the lock — so into a full table the key displaces
// exactly one entry and every reader gets the same value.
func TestCacheRacingMissesDisplaceOne(t *testing.T) {
	var c Cache[*int]
	fresh := func(b []byte) (*int, error) { n := len(b); return &n, nil }
	resident := map[string]bool{}
	for i := 0; len(resident) < Shards*ShardCap; i++ {
		key := []byte("fill" + strconv.Itoa(i))
		s := &c.shards[maphash.Bytes(seed, key)&(Shards-1)]
		if len(s.slots) == ShardCap {
			continue
		}
		c.Resolve(key, fresh) //nolint:errcheck
		resident[string(key)] = true
	}

	const readers = 8
	absent := []byte("absent")
	var entered, done sync.WaitGroup
	gate := make(chan struct{})
	gated := func(b []byte) (*int, error) {
		entered.Done()
		<-gate
		return fresh(b)
	}
	got := make([]*int, readers)
	entered.Add(readers)
	for g := 0; g < readers; g++ {
		done.Add(1)
		go func(g int) {
			defer done.Done()
			got[g], _ = c.Resolve(absent, gated)
		}(g)
	}
	entered.Wait() // every reader has missed and is decoding
	close(gate)
	done.Wait()

	for g := 1; g < readers; g++ {
		if got[g] != got[0] {
			t.Errorf("reader %d got its own decode, want the resident value", g)
		}
	}
	if total := entries(t, &c); total != Shards*ShardCap {
		t.Errorf("%d entries, want the table still full at %d", total, Shards*ShardCap)
	}
	displaced := 0
	for key := range resident {
		s := &c.shards[maphash.String(seed, key)&(Shards-1)]
		if _, ok := s.index[key]; !ok {
			displaced++
		}
	}
	if displaced != 1 {
		t.Errorf("%d readers missing one key displaced %d entries, want 1", readers, displaced)
	}
}

// TestCacheNeverCachesErrors: a key whose decode fails is decoded, and
// refused, every time.
func TestCacheNeverCachesErrors(t *testing.T) {
	var c Cache[int]
	calls := 0
	fail := func([]byte) (int, error) { calls++; return 0, errors.New("malformed") }
	for i := 0; i < 3; i++ {
		if _, err := c.Resolve([]byte("bad"), fail); err == nil {
			t.Fatal("failed decode served as a value")
		}
	}
	if calls != 3 {
		t.Errorf("decode ran %d times for 3 failing resolves", calls)
	}
	if total := entries(t, &c); total != 0 {
		t.Errorf("%d entries cached from failing decodes", total)
	}
}

// TestCacheHitAllocs: the promise the decode path rests on.
func TestCacheHitAllocs(t *testing.T) {
	var c Cache[int]
	key := []byte("/prov0/obj/chunk7")
	if _, err := c.Resolve(key, decodeLen); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, func() { c.Resolve(key, decodeLen) }); allocs != 0 { //nolint:errcheck
		t.Errorf("a cache hit allocates %.1f/op, want 0", allocs)
	}
}

// TestCacheConcurrent shares one cache between goroutines whose key set
// is four times its bound, so eviction, the index rewrite and lookups
// race under the race detector; each value must still be its own key's.
func TestCacheConcurrent(t *testing.T) {
	var c Cache[int]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8*Shards*ShardCap; i++ {
				key := []byte(strconv.Itoa((i * (2*g + 1)) % (4 * Shards * ShardCap)))
				if v, err := c.Resolve(key, decodeLen); err != nil || v != len(key) {
					t.Errorf("key %s: got %d, %v", key, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if total := entries(t, &c); total > Shards*ShardCap {
		t.Errorf("%d entries, bound %d x %d", total, Shards, ShardCap)
	}
}

var sink int

// BenchmarkCacheResolve is the standing micro-measure of the decode
// path's table: a hit on a tag-sized and on a name-sized key (the shard
// hash reads the whole key, so the two differ), and a cyclic scan of a
// working set 64 keys over the bound, whose decodes/op is the miss ratio.
func BenchmarkCacheResolve(b *testing.B) {
	for _, bc := range []struct {
		name   string
		keyLen int
		keys   int
	}{
		{"hit-tag250", 250, 2048},
		{"hit-name24", 24, 2048},
		{"scan-past-bound", 24, Shards*ShardCap + 64},
	} {
		b.Run(bc.name, func(b *testing.B) {
			keys := make([][]byte, bc.keys)
			for i := range keys {
				prefix := "/prov0/obj/" + strconv.Itoa(i) + "/"
				keys[i] = append([]byte(prefix), bytes.Repeat([]byte{'x'}, bc.keyLen-len(prefix))...)
			}
			var c Cache[int]
			decodes := 0
			counted := func(k []byte) (int, error) { decodes++; return len(k), nil }
			for cycle := 0; cycle < 2; cycle++ {
				for _, k := range keys {
					c.Resolve(k, counted) //nolint:errcheck
				}
			}
			decodes = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, _ := c.Resolve(keys[i%len(keys)], counted)
				sink += v
			}
			b.ReportMetric(float64(decodes)/float64(b.N), "decodes/op")
		})
	}
}
