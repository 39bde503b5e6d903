// Package intern is the decode-side interning mechanism of the live wire
// path. A router sees the same tag on every Interest of a client session
// and the same handful of names over and over; re-parsing them per packet
// dominates the decode stage. Tags and names are immutable once
// constructed, so decoded values keyed by their exact wire bytes can be
// shared freely across packets and goroutines.
//
// A Cache is a sharded map with generation clearing: when a shard fills,
// it is dropped wholesale and repopulated by subsequent traffic. That
// bounds memory without LRU bookkeeping on the hot path; a clear costs one
// decode per live key, which the steady state amortises to nothing.
// Lookups with a []byte key use the map[string] compiler optimisation, so
// a cache hit allocates nothing.
package intern

import "sync"

const (
	// Shards is the number of lock-striped shards of a Cache; a power of
	// two.
	Shards = 16
	// ShardCap bounds each shard; a Cache holds at most Shards * ShardCap
	// entries.
	ShardCap = 512
)

// Cache is one sharded wire-bytes → value cache. The zero value is ready
// to use; it is safe for concurrent use.
type Cache[V any] struct {
	shards [Shards]struct {
		mu sync.Mutex
		m  map[string]V
	}
}

// Resolve returns the value decoded from key, from the cache when the
// exact bytes were decoded before and through decode otherwise. Only
// successful decodes are cached, so malformed input is re-judged (and
// re-rejected) every time.
func (c *Cache[V]) Resolve(key []byte, decode func([]byte) (V, error)) (V, error) {
	h := uint64(14695981039346656037) // FNV-1a
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	s := &c.shards[h&(Shards-1)]
	s.mu.Lock()
	v, ok := s.m[string(key)]
	s.mu.Unlock()
	if ok {
		return v, nil
	}
	v, err := decode(key)
	if err != nil {
		return v, err
	}
	s.mu.Lock()
	if s.m == nil || len(s.m) >= ShardCap {
		s.m = make(map[string]V, ShardCap/4)
	}
	s.m[string(key)] = v
	s.mu.Unlock()
	return v, nil
}
