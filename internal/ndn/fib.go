package ndn

import (
	"sync"

	"github.com/tactic-icn/tactic/internal/names"
)

// FIB is a Forwarding Information Base mapping name prefixes to outgoing
// faces. Lookup performs longest-prefix match, the standard NDN
// forwarding rule. It is safe for concurrent use: route lookups (the per
// packet operation) take a read lock, route updates (rare) a write lock.
type FIB struct {
	mu      sync.RWMutex
	entries map[string]FaceID
	// maxDepth bounds the LPM walk to the longest inserted prefix.
	maxDepth int
}

// NewFIB creates an empty FIB.
func NewFIB() *FIB {
	return &FIB{entries: make(map[string]FaceID)}
}

// NewLockedFIB is NewFIB, under the name it had while an unlocked FIB
// existed beside the locked one.
func NewLockedFIB() *FIB { return NewFIB() }

// Insert adds (or replaces) a route for prefix via face.
func (f *FIB) Insert(prefix names.Name, face FaceID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.entries[prefix.Key()] = face
	if prefix.Len() > f.maxDepth {
		f.maxDepth = prefix.Len()
	}
}

// Remove deletes the route for an exact prefix, reporting whether it
// existed.
func (f *FIB) Remove(prefix names.Name) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	k := prefix.Key()
	if _, ok := f.entries[k]; !ok {
		return false
	}
	delete(f.entries, k)
	return true
}

// RemoveFace deletes every route pointing at face and returns how many
// were removed — used when a face dies, so Interests are not forwarded
// into a black hole (the routes reattach when a managed uplink
// reconnects).
func (f *FIB) RemoveFace(face FaceID) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for k, v := range f.entries {
		if v == face {
			delete(f.entries, k)
			n++
		}
	}
	// maxDepth stays as an upper bound; Lookup only uses it to cap the
	// LPM walk.
	return n
}

// Lookup returns the face for the longest registered prefix of name.
func (f *FIB) Lookup(name names.Name) (FaceID, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	depth := name.Len()
	if depth > f.maxDepth {
		depth = f.maxDepth
	}
	for k := depth; k >= 0; k-- {
		if face, ok := f.entries[name.Prefix(k).Key()]; ok {
			return face, true
		}
	}
	return FaceNone, false
}

// Len returns the number of routes.
func (f *FIB) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.entries)
}
