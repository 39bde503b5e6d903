package intern

import (
	"errors"
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

// entries counts what the cache holds, whole and in its fullest shard.
func entries(c *Cache[int]) (total, fullest int) {
	for i := range c.shards {
		n := len(c.shards[i].m)
		total += n
		if n > fullest {
			fullest = n
		}
	}
	return total, fullest
}

// TestCacheBound drives the cache well past Shards x ShardCap distinct
// keys: no shard ever holds more than ShardCap entries (a full shard is
// dropped and refilled), every key still resolves to its own value, and a
// key resolved again right away is served from the table.
func TestCacheBound(t *testing.T) {
	var c Cache[int]
	decodes := 0
	counted := func(b []byte) (int, error) { decodes++; return decodeLen(b) }
	const keys = 4 * Shards * ShardCap
	cleared := false
	prev := 0
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
		total, fullest := entries(&c)
		if fullest > ShardCap || total > Shards*ShardCap {
			t.Fatalf("after %d keys: %d entries, fullest shard %d, bound %d x %d", i+1, total, fullest, Shards, ShardCap)
		}
		if total < prev {
			cleared = true
		}
		prev = total
	}
	if !cleared {
		t.Errorf("%d keys never cleared a shard", keys)
	}
	if decodes != keys {
		t.Errorf("%d decodes for %d distinct keys", decodes, keys)
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
	if total, _ := entries(&c); total != 0 {
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

// TestCacheConcurrent shares one cache between goroutines that overflow
// it, for the race detector.
func TestCacheConcurrent(t *testing.T) {
	var c Cache[int]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2*Shards*ShardCap; i++ {
				key := []byte(strconv.Itoa(i % (Shards*ShardCap + 100*g)))
				if v, err := c.Resolve(key, decodeLen); err != nil || v != len(key) {
					t.Errorf("key %s: got %d, %v", key, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
