package core

import (
	"sync"
	"sync/atomic"
)

// RevocationSet is the router-side half of explicit revocation: a small
// exact set of revoked TagIDs, consulted before the Bloom filter on
// every enforcement path so a revoked tag is denied without waiting for
// its T_e. TACTIC's only native revocation is expiry; a provider's grant
// store closes that gap (Provider.Revoke), and its revoked grants that
// are still live (Provider.Revocations) are pushed to routers over
// control TLVs.
//
// The set is versioned: every push carries the issuer's version, and a
// router applies a push only when it advances the set, so routers (and
// the forwarder's control-flood dedup) apply each update at most once
// and ignore stale or replayed pushes.
//
// Reads are lock-free — Contains is on the forwarding hot path, ahead
// of the BF lookup — via an atomic pointer to an immutable state. Every
// push is the whole set, so Apply builds a fresh map and swaps it in;
// the set holds only the revoked grants whose T_e has not passed, since
// an expired tag is denied by its T_e anyway.
type RevocationSet struct {
	mu    sync.Mutex // serialises writers
	state atomic.Pointer[revocationState]
}

// revocationState is one immutable snapshot of the set.
type revocationState struct {
	version uint64
	ids     map[TagID]struct{}
}

// NewRevocationSet returns an empty set at version 0.
func NewRevocationSet() *RevocationSet {
	s := &RevocationSet{}
	s.state.Store(&revocationState{ids: map[TagID]struct{}{}})
	return s
}

// Contains reports whether id is revoked. Lock-free; safe on the hot
// path.
func (s *RevocationSet) Contains(id TagID) bool {
	st := s.state.Load()
	if len(st.ids) == 0 {
		return false
	}
	_, ok := st.ids[id]
	return ok
}

// Version returns the set's current version.
func (s *RevocationSet) Version() uint64 { return s.state.Load().version }

// Len returns the number of revoked IDs.
func (s *RevocationSet) Len() int { return len(s.state.Load().ids) }

// Apply replaces the whole set with ids at version, unless version does
// not advance the set, in which case the push is ignored. The return
// value reports whether state advanced — the forwarder floods a control
// message onward only when it did, which terminates the flood.
func (s *RevocationSet) Apply(version uint64, ids []TagID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if version <= s.state.Load().version {
		return false
	}
	next := &revocationState{version: version, ids: make(map[TagID]struct{}, len(ids))}
	for _, id := range ids {
		next.ids[id] = struct{}{}
	}
	s.state.Store(next)
	return true
}
