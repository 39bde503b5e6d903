package ndn

import (
	"sync"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
)

// CS is a least-recently-used Content Store — the pervasive in-network
// cache that motivates TACTIC: "a content object, when published by its
// publisher, can be cached at every node in the network allowing
// subsequent requests for the content to be fulfilled from these
// in-network caches" (§1). A router whose CS holds the requested content
// acts as a content router (R_C^c) and runs Protocol 3. A CS is safe for
// concurrent use: every method holds the store's one lock, as the FIB's
// do, so the whole capacity is one exact LRU under both drivers.
//
// The store owns its bytes, and nothing outside it holds a pointer into
// them: Insert copies a chunk in, and a hit is copied out (LookupInto)
// under the lock. Each item keeps its chunk by value in an encoding
// buffer of its own, which a full store reuses when it rewrites its least
// recently used item, so caching a chunk allocates only while the store
// grows — and a hit copied into a caller's reused Content not at all.
type CS struct {
	mu       sync.Mutex
	capacity int
	// root is the sentinel of the recency ring: root.next is the most
	// recently used item, root.prev the least.
	root    csItem
	index   map[string]*csItem
	hits    uint64
	misses  uint64
	evicted uint64
}

// csItem is one cached chunk, linked into its store's recency ring. A
// full store rewrites its least recently used item in place, so items
// are allocated only while the store grows.
type csItem struct {
	prev, next *csItem
	key        string
	content    core.Content
}

// NewCS creates a content store holding at most capacity chunks. A zero
// or negative capacity disables caching (every Lookup misses).
func NewCS(capacity int) *CS {
	c := &CS{capacity: capacity, index: make(map[string]*csItem)}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// NewShardedCS is NewCS, under the name it had while the live plane
// split the store into per-shard LRUs.
func NewShardedCS(capacity int) *CS { return NewCS(capacity) }

// unlink takes it out of the recency ring.
func (c *CS) unlink(it *csItem) {
	it.prev.next, it.next.prev = it.next, it.prev
}

// pushFront links it in as the most recently used item.
func (c *CS) pushFront(it *csItem) {
	it.prev, it.next = &c.root, c.root.next
	it.prev.next, it.next.prev = it, it
}

// Insert caches a copy of a chunk, evicting the least recently used
// entry when full; the caller keeps content. Re-inserting an existing
// name refreshes its recency and its bytes.
func (c *CS) Insert(content *core.Content) {
	if c.capacity <= 0 {
		return
	}
	k := content.Meta.Name.Key()
	c.mu.Lock()
	defer c.mu.Unlock()
	it, ok := c.index[k]
	switch {
	case ok:
		c.unlink(it)
	case len(c.index) >= c.capacity:
		it = c.root.prev
		c.unlink(it)
		delete(c.index, it.key)
		c.evicted++
		it.key = k
		c.index[k] = it
	default:
		it = &csItem{key: k}
		c.index[k] = it
	}
	core.CopyContent(&it.content, content)
	c.pushFront(it)
}

// Lookup returns a copy of the cached chunk for name, refreshing its
// recency: LookupInto with a fresh Content, the simulator's call, whose
// hits travel as events after the call returns.
func (c *CS) Lookup(name names.Name) (*core.Content, bool) {
	return c.LookupInto(name, nil)
}

// LookupInto copies the cached chunk for name into dst, whose buffer is
// reused, and refreshes its recency; a nil dst gets a fresh Content. It
// returns the copy. The copy is made under the store's lock and shares
// nothing with the store, so it stays intact when the chunk is evicted or
// rewritten; dst's previous contents are gone.
func (c *CS) LookupInto(name names.Name, dst *core.Content) (*core.Content, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	it, ok := c.index[name.Key()]
	if !ok {
		c.misses++
		return nil, false
	}
	c.unlink(it)
	c.pushFront(it)
	c.hits++
	if dst == nil {
		return it.content.Clone(), true
	}
	core.CopyContent(dst, &it.content)
	return dst, true
}

// Contains reports whether name is cached without touching recency or
// hit/miss statistics.
func (c *CS) Contains(name names.Name) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.index[name.Key()]
	return ok
}

// Len returns the number of cached chunks.
func (c *CS) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index)
}

// Names returns the cached content names in unspecified order, without
// touching recency or hit/miss statistics. The conformance oracle uses
// it to compare end-state cache contents across enforcement planes.
func (c *CS) Names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.index))
	for k := range c.index {
		out = append(out, k)
	}
	return out
}

// Stats returns hits, misses, and evictions.
func (c *CS) Stats() (hits, misses, evicted uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evicted
}
