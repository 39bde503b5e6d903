package ndn

import (
	"container/list"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
)

// CS is a least-recently-used Content Store — the pervasive in-network
// cache that motivates TACTIC: "a content object, when published by its
// publisher, can be cached at every node in the network allowing
// subsequent requests for the content to be fulfilled from these
// in-network caches" (§1). A router whose CS holds the requested content
// acts as a content router (R_C^c) and runs Protocol 3. A CS is not safe
// for concurrent use; the live plane's ShardedCS locks around 16 of them.
type CS struct {
	capacity int
	ll       *list.List
	index    map[string]*list.Element
	hits     uint64
	misses   uint64
	evicted  uint64
}

// csItem is one cached chunk.
type csItem struct {
	key     string
	content *core.Content
}

// NewCS creates a content store holding at most capacity chunks. A zero
// or negative capacity disables caching (every Lookup misses).
func NewCS(capacity int) *CS {
	return &CS{
		capacity: capacity,
		ll:       list.New(),
		index:    make(map[string]*list.Element),
	}
}

// Insert caches a chunk, evicting the least recently used entry when
// full. Re-inserting an existing name refreshes its recency.
func (c *CS) Insert(content *core.Content) {
	if c.capacity <= 0 {
		return
	}
	k := content.Meta.Name.Key()
	if el, ok := c.index[k]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*csItem).content = content
		return
	}
	el := c.ll.PushFront(&csItem{key: k, content: content})
	c.index[k] = el
	if c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.index, oldest.Value.(*csItem).key)
		c.evicted++
	}
}

// Lookup returns the cached chunk for name, refreshing its recency.
func (c *CS) Lookup(name names.Name) (*core.Content, bool) {
	el, ok := c.index[name.Key()]
	if !ok {
		c.misses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return el.Value.(*csItem).content, true
}

// Contains reports whether name is cached without touching recency or
// hit/miss statistics.
func (c *CS) Contains(name names.Name) bool {
	_, ok := c.index[name.Key()]
	return ok
}

// Len returns the number of cached chunks.
func (c *CS) Len() int { return c.ll.Len() }

// Names returns the cached content names in unspecified order, without
// touching recency or hit/miss statistics. The conformance oracle uses
// it to compare end-state cache contents across enforcement planes.
func (c *CS) Names() []string {
	out := make([]string, 0, len(c.index))
	for k := range c.index {
		out = append(out, k)
	}
	return out
}

// Stats returns hits, misses, and evictions.
func (c *CS) Stats() (hits, misses, evicted uint64) {
	return c.hits, c.misses, c.evicted
}
