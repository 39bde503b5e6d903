package core

import (
	"sync"
	"sync/atomic"
)

// RevocationSet is the router-side half of explicit revocation: a small
// exact set of revoked TagIDs, consulted before the Bloom filter on
// every enforcement path so a revoked tag is denied without waiting for
// its T_e. TACTIC's only native revocation mechanism is expiry; a
// provider's grant store closes that gap (Provider.Revoke) and its set is
// pushed to routers over control TLVs.
//
// The set is versioned: every update advances a monotonic version, and
// pushed updates carry the issuer's version so routers (and the
// forwarder's control-flood dedup) apply each update at most once and
// ignore stale or replayed pushes.
//
// Reads are lock-free — Contains is on the forwarding hot path, ahead
// of the BF lookup — via an atomic pointer to an immutable state;
// writers copy-on-write under a mutex. The set is expected to stay
// small (revocation is exceptional; expiry still reclaims the common
// case), so full-map copies on update are cheap.
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

// Revoke adds IDs locally, advancing the version by one. Used by the
// issuance authority's own set; routers receive updates via Apply.
func (s *RevocationSet) Revoke(ids ...TagID) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.state.Load()
	next := &revocationState{version: old.version + 1, ids: make(map[TagID]struct{}, len(old.ids)+len(ids))}
	for id := range old.ids {
		next.ids[id] = struct{}{}
	}
	for _, id := range ids {
		next.ids[id] = struct{}{}
	}
	s.state.Store(next)
	return next.version
}

// Apply installs a pushed update. When full is set the update replaces
// the whole set (a state snapshot); otherwise the IDs are unioned in (a
// delta). Updates whose version does not advance the set are ignored.
// The return value reports whether state advanced — the forwarder
// floods a control message onward only when it did, which terminates
// the flood.
func (s *RevocationSet) Apply(version uint64, full bool, ids []TagID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.state.Load()
	if version <= old.version {
		return false
	}
	next := &revocationState{version: version}
	if full {
		next.ids = make(map[TagID]struct{}, len(ids))
	} else {
		next.ids = make(map[TagID]struct{}, len(old.ids)+len(ids))
		for id := range old.ids {
			next.ids[id] = struct{}{}
		}
	}
	for _, id := range ids {
		next.ids[id] = struct{}{}
	}
	s.state.Store(next)
	return true
}

// Snapshot returns the current version and a copy of the revoked IDs,
// in unspecified order — the payload of a full (state-snapshot) push.
func (s *RevocationSet) Snapshot() (uint64, []TagID) {
	st := s.state.Load()
	ids := make([]TagID, 0, len(st.ids))
	for id := range st.ids {
		ids = append(ids, id)
	}
	return st.version, ids
}
