package ndn

import (
	"sync"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
)

// Concurrency-safe PIT and CS: with the FIB (fib.go, which locks itself)
// the concrete tables the node core (internal/node) sequences under both
// drivers. They hold no table logic of their own: a ShardedPIT is n ×
// {mutex, PIT}, a ShardedCS n × {mutex, CS}. Every method picks the shard
// by a hash of the content name, locks it and delegates to the plain table
// in pit.go or cs.go, so packets for different names proceed in parallel
// while all operations on one name serialise on its shard lock. The driver
// picks n: the live forwarder's face readers share numShards; the
// single-threaded simulator takes one shard, which is the plain table
// behind an uncontended lock — one LRU, one recency order.

// numShards is the live plane's shard count for the PIT and CS. A small
// power of two: enough to keep unrelated names off each other's locks,
// small enough that whole-table walks (expiry, face death) stay cheap.
const numShards = 16

// shardIndex hashes a canonical name key to one of n shards, n a power of
// two (inline FNV-1a, no allocation; a single shard is not hashed for).
func shardIndex(key string, n int) int {
	if n == 1 {
		return 0
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int(h & uint64(n-1))
}

// pitShard is one lock-striped slice of the PIT.
type pitShard struct {
	mu  sync.Mutex
	pit *PIT
}

// ShardedPIT is a Pending Interest Table safe for concurrent use,
// sharded by name hash. Entries returned by Consume, ExpireBefore, and
// DropByOutFace are removed from the table before being returned, so the
// caller owns them exclusively; ConsumeFrom returns the records and keeps
// the entry.
type ShardedPIT struct {
	shards []pitShard
}

// NewShardedPIT creates an empty concurrent PIT.
func NewShardedPIT() *ShardedPIT { return NewShardedPITOf(numShards) }

// NewShardedPITOf creates an empty PIT of n shards, n a power of two.
func NewShardedPITOf(n int) *ShardedPIT {
	p := &ShardedPIT{shards: make([]pitShard, n)}
	for i := range p.shards {
		p.shards[i].pit = NewPIT()
	}
	return p
}

// lock returns name's shard, locked.
func (p *ShardedPIT) lock(name names.Name) *pitShard {
	s := &p.shards[shardIndex(name.Key(), len(p.shards))]
	s.mu.Lock()
	return s
}

// Admit records one Interest (see PIT.Admit).
func (p *ShardedPIT) Admit(name names.Name, rec PITRecord, now, expires time.Time) (AdmitOutcome, FaceID) {
	s := p.lock(name)
	defer s.mu.Unlock()
	return s.pit.Admit(name, rec, now, expires)
}

// SetOutFace records the face name's primary Interest is forwarded to,
// reporting whether the entry still exists.
func (p *ShardedPIT) SetOutFace(name names.Name, face FaceID) bool {
	s := p.lock(name)
	defer s.mu.Unlock()
	return s.pit.SetOutFace(name, face)
}

// Consume removes and returns the entry for name — the router is about
// to satisfy (or abort) it.
func (p *ShardedPIT) Consume(name names.Name) (*PITEntry, bool) {
	s := p.lock(name)
	defer s.mu.Unlock()
	return s.pit.Consume(name)
}

// ConsumeFrom consumes the entry for name only if it was forwarded to
// face, appending its requesters to recs (see PIT.ConsumeFrom).
func (p *ShardedPIT) ConsumeFrom(name names.Name, face FaceID, recs []PITRecord) ([]PITRecord, bool) {
	s := p.lock(name)
	defer s.mu.Unlock()
	return s.pit.ConsumeFrom(name, face, recs)
}

// each calls fn on every shard's table in turn, under its lock: the
// whole-table walks (expiry, face death, gauges).
func (p *ShardedPIT) each(fn func(*PIT)) {
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		fn(s.pit)
		s.mu.Unlock()
	}
}

// DropByOutFace removes and returns every entry whose primary Interest
// was forwarded to face — called when that face dies.
func (p *ShardedPIT) DropByOutFace(face FaceID) (out []*PITEntry) {
	p.each(func(t *PIT) { out = append(out, t.DropByOutFace(face)...) })
	return out
}

// ExpireBefore removes entries whose lifetime ended at or before now and
// returns them so callers can account for the timed-out requesters.
func (p *ShardedPIT) ExpireBefore(now time.Time) (out []*PITEntry) {
	p.each(func(t *PIT) { out = append(out, t.ExpireBefore(now)...) })
	return out
}

// Len returns the number of pending entries.
func (p *ShardedPIT) Len() (n int) {
	p.each(func(t *PIT) { n += t.Len() })
	return n
}

// Stats returns entries created, Interests aggregated into existing
// entries, and entries expired.
func (p *ShardedPIT) Stats() (created, aggregated, expired uint64) {
	p.each(func(t *PIT) {
		c, a, e := t.Stats()
		created, aggregated, expired = created+c, aggregated+a, expired+e
	})
	return created, aggregated, expired
}

// csShard is one lock-striped LRU slice of the content store.
type csShard struct {
	mu sync.Mutex
	cs *CS
}

// ShardedCS is a content store safe for concurrent use: an LRU per
// shard, with the total capacity divided evenly across shards (recency
// is tracked per shard, an approximation of global LRU that never takes
// a global lock).
type ShardedCS struct {
	shards []csShard
}

// NewShardedCS creates a concurrent content store holding at most
// capacity chunks in total (at least one per shard when capacity is
// positive). A zero or negative capacity disables caching (every Lookup
// misses).
func NewShardedCS(capacity int) *ShardedCS { return NewShardedCSOf(numShards, capacity) }

// NewShardedCSOf is NewShardedCS over n shards, n a power of two; one
// shard is an exact LRU of the whole capacity.
func NewShardedCSOf(n, capacity int) *ShardedCS {
	per := capacity / n
	if per <= 0 && capacity > 0 {
		per = 1
	}
	c := &ShardedCS{shards: make([]csShard, n)}
	for i := range c.shards {
		c.shards[i].cs = NewCS(per)
	}
	return c
}

// lock returns name's shard, locked.
func (c *ShardedCS) lock(name names.Name) *csShard {
	s := &c.shards[shardIndex(name.Key(), len(c.shards))]
	s.mu.Lock()
	return s
}

// Insert caches a chunk, evicting its shard's least recently used entry
// when the shard is full. Re-inserting an existing name refreshes its
// recency.
func (c *ShardedCS) Insert(content *core.Content) {
	s := c.lock(content.Meta.Name)
	defer s.mu.Unlock()
	s.cs.Insert(content)
}

// Lookup returns the cached chunk for name, refreshing its recency.
func (c *ShardedCS) Lookup(name names.Name) (*core.Content, bool) {
	s := c.lock(name)
	defer s.mu.Unlock()
	return s.cs.Lookup(name)
}

// Contains reports whether name is cached without touching recency or
// hit/miss statistics.
func (c *ShardedCS) Contains(name names.Name) bool {
	s := c.lock(name)
	defer s.mu.Unlock()
	return s.cs.Contains(name)
}

// each calls fn on every shard's store in turn, under its lock.
func (c *ShardedCS) each(fn func(*CS)) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		fn(s.cs)
		s.mu.Unlock()
	}
}

// Len returns the number of cached chunks.
func (c *ShardedCS) Len() (n int) {
	c.each(func(t *CS) { n += t.Len() })
	return n
}

// Names returns the cached content names in unspecified order, without
// touching recency or hit/miss statistics. Shards are snapshotted one at
// a time, so the result is a consistent view only on a quiescent store —
// exactly the condition under which the conformance oracle compares
// end-state cache contents across enforcement planes.
func (c *ShardedCS) Names() (out []string) {
	c.each(func(t *CS) { out = append(out, t.Names()...) })
	return out
}

// Stats returns hits, misses, and evictions.
func (c *ShardedCS) Stats() (hits, misses, evicted uint64) {
	c.each(func(t *CS) {
		h, m, e := t.Stats()
		hits, misses, evicted = hits+h, misses+m, evicted+e
	})
	return hits, misses, evicted
}
