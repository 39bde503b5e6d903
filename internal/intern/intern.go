// Package intern is the decode-side interning mechanism of the live wire
// path. A router sees the same tag on every Interest of a client session
// and the same handful of names over and over; re-parsing them per packet
// dominates the decode stage. Tags and names are immutable once
// constructed, so decoded values keyed by their exact wire bytes can be
// shared freely across packets and goroutines.
//
// A Cache is a sharded table with single-victim replacement: each shard
// is a slot array of at most ShardCap entries plus a key → slot index,
// and an insert into a full shard overwrites one uniformly random slot.
// Past its bound the table therefore degrades by a slope — a working set
// k entries over the bound costs about 2k re-decodes per pass — where
// dropping a full shard wholesale re-decoded every key of every pass, and
// where LRU would turn a cyclic scan one key over the bound into 100 %
// misses. The victim comes from a real generator rather than from the
// key or from map iteration order: a remote peer feeding never-repeated
// keys (forged tags) then displaces resident entries no faster than
// chance. The shard is picked with one hash/maphash pass over the key,
// seeded per process, so a peer cannot aim its keys at one shard either.
// Lookups with a []byte key use the map[string] compiler optimisation, so
// a cache hit allocates nothing.
package intern

import (
	"hash/maphash"
	"math/rand/v2"
	"sync"
)

const (
	// Shards is the number of lock-striped shards of a Cache; a power of
	// two.
	Shards = 16
	// ShardCap bounds each shard; a Cache holds at most Shards * ShardCap
	// entries.
	ShardCap = 512
)

var seed = maphash.MakeSeed()

// Cache is one sharded wire-bytes → value cache. The zero value is ready
// to use; it is safe for concurrent use.
type Cache[V any] struct {
	shards [Shards]shard[V]
}

type shard[V any] struct {
	mu sync.Mutex
	// slots grows to ShardCap and stays there; index maps a resident key
	// to its slot.
	slots []slot[V]
	index map[string]int32
}

type slot[V any] struct {
	key string
	val V
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
	if i < ShardCap {
		if s.index == nil {
			s.index = make(map[string]int32, ShardCap/4)
		}
		s.slots = append(s.slots, slot[V]{})
	} else {
		i = rand.IntN(ShardCap)
		delete(s.index, s.slots[i].key)
	}
	k := string(key)
	s.slots[i] = slot[V]{k, v}
	s.index[k] = int32(i)
	return v, nil
}
