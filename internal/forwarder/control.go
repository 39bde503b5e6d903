package forwarder

import (
	"strconv"
	"time"

	"github.com/tactic-icn/tactic/internal/bloom"
	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/obs"
	"github.com/tactic-icn/tactic/internal/transport"
)

// Lifecycle control-plane metrics (see README "Tag lifecycle").
const (
	// MetricControl counts control frames by kind and outcome (applied,
	// stale, invalid).
	MetricControl = "tactic_control_total"
	// MetricRevokedEntries gauges the router's exact revocation set.
	MetricRevokedEntries = "tactic_revoked_entries"
	// MetricBFEpoch gauges the Bloom filter's current epoch.
	MetricBFEpoch = "tactic_bf_epoch"
	// MetricBFSyncWords counts neighbor-sync word deltas by direction.
	MetricBFSyncWords = "tactic_bf_sync_words_total"
)

// Control-frame outcomes for the MetricControl "outcome" label.
const (
	ctrlApplied = "applied"
	ctrlStale   = "stale"
	ctrlInvalid = "invalid"
)

// handleControl applies one lifecycle control frame. Revocation and
// rotation frames that advance this node's state are flooded to every
// other face, so a push to any router reaches the whole deployment;
// version checks make re-floods no-ops and terminate the flood. BF sync
// adverts are hop-local (each node advertises its own filter on its own
// schedule), so they are merged but never flooded.
func (f *Forwarder) handleControl(m *ndn.Control, from *faceState) {
	switch m.Kind {
	case ndn.CtrlRevoke:
		if !f.tactic.ApplyRevocation(m.Version, m.Full, m.Revoked) {
			f.m.control(m.Kind, ctrlStale)
			return
		}
		f.m.control(m.Kind, ctrlApplied)
		f.ev.Emit(obs.EventRevocation, int(from.id), "v"+strconv.Itoa(int(m.Version))+" from "+m.Origin, uint64(len(m.Revoked)))
		f.logf("control: revocation set v%d (%d entries, full=%v) from %q", m.Version, len(m.Revoked), m.Full, m.Origin)
		f.flushRevokedParked()
		f.floodControl(m, from.id)
	case ndn.CtrlRotate:
		if !f.tactic.RotateEpoch(m.Version) {
			f.m.control(m.Kind, ctrlStale)
			return
		}
		f.m.control(m.Kind, ctrlApplied)
		f.ev.Emit(obs.EventEpochRotate, int(from.id), "ordered by "+m.Origin, m.Version)
		f.logf("control: rotated BF to epoch %d (ordered by %q)", m.Version, m.Origin)
		f.floodControl(m, from.id)
	case ndn.CtrlBFSync:
		if err := f.tactic.Bloom().MergeWords(m.Bits, m.Hashes, m.Words, m.Added); err != nil {
			f.m.control(m.Kind, ctrlInvalid)
			f.logf("control: bf sync from %q rejected: %v", m.Origin, err)
			return
		}
		f.m.control(m.Kind, ctrlApplied)
		f.m.syncWordsIn.Add(uint64(len(m.Words)))
	default:
		f.m.control(m.Kind, ctrlInvalid)
		f.logf("control: unknown kind %d from %q", m.Kind, m.Origin)
	}
}

// floodControl relays a control frame to every face except the one it
// arrived on. Send failures fall back on the transport health machinery
// (fatal errors detach the face); the version check at every receiver
// makes duplicate delivery harmless.
func (f *Forwarder) floodControl(m *ndn.Control, except ndn.FaceID) {
	f.mu.RLock()
	targets := make([]*faceState, 0, len(f.faces))
	for id, fs := range f.faces {
		if id != except {
			targets = append(targets, fs)
		}
	}
	f.mu.RUnlock()
	for _, fs := range targets {
		if err := fs.conn.SendControl(m); err != nil {
			f.logf("send control on face %d: %v", fs.id, err)
			if transport.IsFatal(err) {
				f.removeFace(fs.id)
			}
		}
	}
}

// ApplyRevocation applies a revocation-set update locally and, when it
// advances the set, floods it to every attached face. It is the
// programmatic equivalent of receiving a CtrlRevoke frame (used by
// drivers that host the issuance service in-process).
func (f *Forwarder) ApplyRevocation(version uint64, full bool, revoked []core.TagID) bool {
	if !f.tactic.ApplyRevocation(version, full, revoked) {
		return false
	}
	f.m.control(ndn.CtrlRevoke, ctrlApplied)
	f.ev.Emit(obs.EventRevocation, -1, "v"+strconv.Itoa(int(version))+" local", uint64(len(revoked)))
	f.flushRevokedParked()
	f.floodControl(&ndn.Control{Kind: ndn.CtrlRevoke, Version: version, Origin: f.cfg.ID, Full: full, Revoked: revoked}, ndn.FaceNone)
	return true
}

// flushRevokedParked NACKs parked verify jobs whose tag fell into the
// revocation set while they waited — a revoked tag's verdict is already
// known, so burning a worker slot (and making the client wait) on its
// signature would be wasted work. A job the flush does not reach (its
// verification is running, or it parks a moment later) re-checks
// revocation in its own pre-verify gate, leader or follower, so nothing
// slips through. No-op when the router skips revocation checks
// (ablation).
func (f *Forwarder) flushRevokedParked() {
	if f.cfg.Tactic.DisableRevocationCheck {
		return
	}
	rev := f.tactic.Revocations()
	n := f.vp.flushWhere(func(j *verifyJob) bool {
		return j.i.Tag != nil && rev.Contains(j.i.Tag.ID())
	}, core.ErrTagRevoked)
	if n > 0 {
		f.logf("control: flushed %d parked verifies for revoked tags", n)
	}
}

// AddSyncPeer registers an attached face as a BF-sync peer: the
// forwarder periodically advertises its validated-tag Bloom filter's
// word deltas there (see Config.BFSyncInterval), so a client roaming to
// that neighbor hits a warm filter instead of re-paying signature
// verification.
func (f *Forwarder) AddSyncPeer(face ndn.FaceID) {
	f.syncMu.Lock()
	f.syncPeers = append(f.syncPeers, face)
	f.syncMu.Unlock()
}

// RemoveSyncPeer unregisters a BF-sync peer face (no-op if absent);
// managed uplinks call it when their face dies so adverts stop chasing
// dead faces across reconnects.
func (f *Forwarder) RemoveSyncPeer(face ndn.FaceID) {
	f.syncMu.Lock()
	for i, p := range f.syncPeers {
		if p == face {
			f.syncPeers = append(f.syncPeers[:i], f.syncPeers[i+1:]...)
			break
		}
	}
	f.syncMu.Unlock()
}

// syncLoop periodically advertises BF deltas to the registered sync
// peers.
func (f *Forwarder) syncLoop(interval time.Duration) {
	defer f.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-f.closed:
			return
		case <-t.C:
			f.SyncBF()
		}
	}
}

// SyncBF advertises the Bloom filter words changed since the previous
// advertisement to every sync peer, as one CtrlBFSync frame. It is
// called from the BFSyncInterval ticker and may be called directly to
// force an advertisement (tests, handover hooks). A call with no
// changed words or no live peers sends nothing.
func (f *Forwarder) SyncBF() {
	f.syncMu.Lock()
	defer f.syncMu.Unlock()
	if len(f.syncPeers) == 0 {
		return
	}
	bf := f.tactic.Bloom()
	cur := bf.Words()
	count := bf.Count()
	deltas := bloom.DiffWords(f.syncSnap, cur)
	if len(deltas) == 0 {
		return
	}
	var added uint64
	if count > f.syncCount {
		added = count - f.syncCount
	}
	m := &ndn.Control{
		Kind:    ndn.CtrlBFSync,
		Version: f.syncGen.Add(1),
		Origin:  f.cfg.ID,
		Bits:    bf.Bits(),
		Hashes:  bf.Hashes(),
		Words:   deltas,
		Added:   added,
	}
	live := f.syncPeers[:0]
	for _, id := range f.syncPeers {
		f.mu.RLock()
		fs, ok := f.faces[id]
		f.mu.RUnlock()
		if !ok {
			continue // face died; drop the peer
		}
		live = append(live, id)
		if err := fs.conn.SendControl(m); err != nil {
			f.logf("bf sync to face %d: %v", id, err)
			continue
		}
		f.m.syncWordsOut.Add(uint64(len(deltas)))
	}
	f.syncPeers = live
	f.syncSnap, f.syncCount = cur, count
}
