// Package intern is the decode-side interning mechanism of the live wire
// path. A router sees the same tag on every Interest of a client session
// and the same handful of names over and over; re-parsing them per packet
// dominates the decode stage. Tags and names are immutable once
// constructed, so decoded values keyed by their exact wire bytes can be
// shared freely across packets and goroutines.
//
// A Cache is a sharded table bounded as a whole: it holds at most
// Shards * ShardCap entries in all, however they fall across its shards
// (one atomic count across them), each shard a slot array plus a key →
// slot index. Until the table is full an insert takes a new slot; once it
// is full, an insert overwrites one uniformly random slot of the shard it
// lands in. A working set that fits the bound therefore stays resident
// whatever the deal of keys over shards — a cyclic scan of exactly the
// bound decodes each key once — where a per-shard bound made the seed
// decide how many keys of such a scan overflowed their shard on every
// pass. Past its bound the table degrades by a slope — a working set k
// entries over the bound costs about 2k re-decodes per pass — where
// dropping a full shard wholesale re-decoded every key of every pass, and
// where LRU would turn a cyclic scan one key over the bound into 100 %
// misses. The victim comes from a real generator rather than from the key
// or from map iteration order: a remote peer feeding never-repeated keys
// (forged tags) then displaces resident entries no faster than chance. The
// shard is picked with one hash/maphash pass over the key, seeded per
// process, so a peer cannot aim its keys at one shard either (and a key
// landing in a shard that holds nothing while the table is full is
// served but not cached). Lookups with a []byte key use the map[string]
// compiler optimisation, so a cache hit allocates nothing.
package intern

import (
	"hash/maphash"
	"math/rand/v2"
	"sync"
	"sync/atomic"
)

const (
	// Shards is the number of lock-striped shards of a Cache; a power of
	// two.
	Shards = 16
	// ShardCap is a shard's even share of the bound: a Cache holds at
	// most Shards * ShardCap entries in all, and a shard may hold more
	// than ShardCap while others hold fewer.
	ShardCap = 512
	// bound is the most entries a Cache holds.
	bound = Shards * ShardCap
)

var seed = maphash.MakeSeed()

// Cache is one sharded wire-bytes → value cache. The zero value is ready
// to use; it is safe for concurrent use.
type Cache[V any] struct {
	// entries counts the slots taken across every shard; a shard takes a
	// new slot only by raising it below the bound.
	entries atomic.Int32
	shards  [Shards]shard[V]
}

type shard[V any] struct {
	mu sync.Mutex
	// slots only grows; index maps a resident key to its slot.
	slots []slot[V]
	index map[string]int32
}

type slot[V any] struct {
	key string
	val V
}

// reserve takes one of the table's free slots, if any is left.
func (c *Cache[V]) reserve() bool {
	for {
		n := c.entries.Load()
		if n >= bound {
			return false
		}
		if c.entries.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Resolve returns the value decoded from key, from the cache when the
// exact bytes were decoded before and through decode otherwise. Only
// successful decodes are cached, so malformed input is re-judged (and
// re-rejected) every time.
func (c *Cache[V]) Resolve(key []byte, decode func([]byte) (V, error)) (V, error) {
	s := &c.shards[maphash.Bytes(seed, key)&(Shards-1)]
	s.mu.Lock()
	if i, ok := s.index[string(key)]; ok {
		v := s.slots[i].val
		s.mu.Unlock()
		return v, nil
	}
	s.mu.Unlock()
	v, err := decode(key)
	if err != nil {
		return v, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Another reader may have missed the same key and inserted it while
	// this one decoded: its value stays, so one absent key displaces at
	// most one resident entry.
	if i, ok := s.index[string(key)]; ok {
		return s.slots[i].val, nil
	}
	i := len(s.slots)
	switch {
	case c.reserve():
		if s.index == nil {
			s.index = make(map[string]int32, ShardCap/4)
		}
		s.slots = append(s.slots, slot[V]{})
	case i == 0:
		return v, nil // the table is full and this shard has no slot to give up
	default:
		i = rand.IntN(i)
		delete(s.index, s.slots[i].key)
	}
	k := string(key)
	s.slots[i] = slot[V]{k, v}
	s.index[k] = int32(i)
	return v, nil
}
