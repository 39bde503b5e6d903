package ndn

import (
	"sync"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
)

// Concurrency-safe forwarding tables for the live plane. They hold no
// table logic of their own: a ShardedPIT is numShards × {mutex, PIT}, a
// ShardedCS numShards × {mutex, CS}, and a LockedFIB one RWMutex over a
// FIB. Every method picks the shard by a hash of the content name, locks
// it and delegates to the plain table in pit.go, cs.go or fib.go — the
// same code the single-threaded simulator calls directly — so packets
// for different names proceed in parallel while all operations on one
// name serialise on its shard lock. Only internal/forwarder uses these
// types.

// numShards is the shard count for the PIT and CS. A small power of two:
// enough to keep unrelated names off each other's locks, small enough
// that whole-table walks (expiry, face death) stay cheap.
const numShards = 16

// shardIndex hashes a canonical name key to a shard (inline FNV-1a, no
// allocation).
func shardIndex(key string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int(h & (numShards - 1))
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
	shards [numShards]pitShard
}

// NewShardedPIT creates an empty concurrent PIT.
func NewShardedPIT() *ShardedPIT {
	p := &ShardedPIT{}
	for i := range p.shards {
		p.shards[i].pit = NewPIT()
	}
	return p
}

// lock returns name's shard, locked.
func (p *ShardedPIT) lock(name names.Name) *pitShard {
	s := &p.shards[shardIndex(name.Key())]
	s.mu.Lock()
	return s
}

// Admit records one Interest (see PIT.Admit). On PITNew the caller must
// resolve a route, record it with SetOutFace, and forward the Interest,
// consuming the entry again if it cannot.
func (p *ShardedPIT) Admit(name names.Name, rec PITRecord, now, expires time.Time) (AdmitOutcome, FaceID) {
	s := p.lock(name)
	defer s.mu.Unlock()
	return s.pit.Admit(name, rec, now, expires)
}

// SetOutFace records the upstream face the primary Interest of name was
// forwarded to, reporting whether the entry still exists.
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

// DropByOutFace removes and returns every entry whose primary Interest
// was forwarded to face — called when that face dies.
func (p *ShardedPIT) DropByOutFace(face FaceID) []*PITEntry {
	var out []*PITEntry
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		out = append(out, s.pit.DropByOutFace(face)...)
		s.mu.Unlock()
	}
	return out
}

// ExpireBefore removes entries whose lifetime ended at or before now and
// returns them so callers can account for the timed-out requesters.
func (p *ShardedPIT) ExpireBefore(now time.Time) []*PITEntry {
	var out []*PITEntry
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		out = append(out, s.pit.ExpireBefore(now)...)
		s.mu.Unlock()
	}
	return out
}

// Len returns the number of pending entries.
func (p *ShardedPIT) Len() int {
	n := 0
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		n += s.pit.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats returns entries created, Interests aggregated into existing
// entries, and entries expired.
func (p *ShardedPIT) Stats() (created, aggregated, expired uint64) {
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		c, a, e := s.pit.Stats()
		s.mu.Unlock()
		created, aggregated, expired = created+c, aggregated+a, expired+e
	}
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
	shards [numShards]csShard
}

// NewShardedCS creates a concurrent content store holding at most
// capacity chunks in total (at least one per shard when capacity is
// positive). A zero or negative capacity disables caching (every Lookup
// misses).
func NewShardedCS(capacity int) *ShardedCS {
	per := capacity / numShards
	if per <= 0 && capacity > 0 {
		per = 1
	}
	c := &ShardedCS{}
	for i := range c.shards {
		c.shards[i].cs = NewCS(per)
	}
	return c
}

// lock returns name's shard, locked.
func (c *ShardedCS) lock(name names.Name) *csShard {
	s := &c.shards[shardIndex(name.Key())]
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

// Len returns the number of cached chunks.
func (c *ShardedCS) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.cs.Len()
		s.mu.Unlock()
	}
	return n
}

// Names returns the cached content names in unspecified order, without
// touching recency or hit/miss statistics. Shards are snapshotted one at
// a time, so the result is a consistent view only on a quiescent store —
// exactly the condition under which the conformance oracle compares
// end-state cache contents across enforcement planes.
func (c *ShardedCS) Names() []string {
	var out []string
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		out = append(out, s.cs.Names()...)
		s.mu.Unlock()
	}
	return out
}

// Stats returns hits, misses, and evictions.
func (c *ShardedCS) Stats() (hits, misses, evicted uint64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		h, m, e := s.cs.Stats()
		s.mu.Unlock()
		hits, misses, evicted = hits+h, misses+m, evicted+e
	}
	return hits, misses, evicted
}

// LockedFIB is a FIB safe for concurrent use: route lookups (the per
// packet operation) take a read lock, route updates (rare) a write lock.
type LockedFIB struct {
	mu  sync.RWMutex
	fib *FIB
}

// NewLockedFIB creates an empty concurrent FIB.
func NewLockedFIB() *LockedFIB { return &LockedFIB{fib: NewFIB()} }

// Insert adds (or replaces) a route for prefix via face.
func (f *LockedFIB) Insert(prefix names.Name, face FaceID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fib.Insert(prefix, face)
}

// Remove deletes the route for an exact prefix, reporting whether it
// existed.
func (f *LockedFIB) Remove(prefix names.Name) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fib.Remove(prefix)
}

// RemoveFace deletes every route pointing at face and returns how many
// were removed.
func (f *LockedFIB) RemoveFace(face FaceID) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fib.RemoveFace(face)
}

// Lookup returns the face for the longest registered prefix of name.
func (f *LockedFIB) Lookup(name names.Name) (FaceID, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.fib.Lookup(name)
}

// Len returns the number of routes.
func (f *LockedFIB) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.fib.Len()
}
