package forwarder

import (
	"strconv"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/node"
	"github.com/tactic-icn/tactic/internal/obs"
	"github.com/tactic-icn/tactic/internal/transport"
)

// handleControl applies one lifecycle control frame through the node
// core (which counts it) and acts on its step: record an applied
// revocation or rotation, flush parked verifications of newly revoked
// tags, and flood what the step says to every face but the arrival face
// — so a push to any router reaches the whole deployment, and version
// checks make re-floods stale and terminate the flood. from is
// ndn.FaceNone for a frame this node originates. It reports whether the
// frame was applied.
func (f *Forwarder) handleControl(m *ndn.Control, from ndn.FaceID) bool {
	st := f.node.OnControl(m)
	switch {
	case st.Err != nil:
		if n := f.rejectGate.Add(1); n > 0 { // a bad-frame stream (any frame, at an origin) logs once a second
			f.logf("control: %v frame from %q rejected: %v (%d rejected since the last report)", m.Kind, m.Origin, st.Err, n)
		}
	case st.Outcome == node.ControlStale: // nothing changed, nothing to record
	case m.Kind == ndn.CtrlRevoke:
		f.ev.Emit(obs.EventRevocation, int(from), "v"+strconv.Itoa(int(m.Version))+" from "+m.Origin, uint64(len(m.Revoked)))
		f.logf("control: revocation set v%d (%d entries) from %q", m.Version, len(m.Revoked), m.Origin)
	case m.Kind == ndn.CtrlRotate:
		f.ev.Emit(obs.EventEpochRotate, int(from), "ordered by "+m.Origin, m.Version)
		f.logf("control: rotated BF to epoch %d (ordered by %q)", m.Version, m.Origin)
	default:
		f.m.syncWordsIn.Add(uint64(len(m.Words)))
	}
	if st.FlushRevoked {
		f.flushRevokedParked()
	}
	if st.Flood {
		f.floodControl(m, from)
	}
	return st.Outcome == node.ControlApplied
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

// ApplyRevocation applies a whole revocation set as a CtrlRevoke frame
// originated here — flooded to every attached face when it advances the
// set — and reports whether it did (used by drivers that hold the
// provider in-process).
func (f *Forwarder) ApplyRevocation(version uint64, revoked []core.TagID) bool {
	return f.handleControl(&ndn.Control{Kind: ndn.CtrlRevoke, Version: version, Origin: f.cfg.ID, Revoked: revoked}, ndn.FaceNone)
}

// flushRevokedParked NACKs parked verify jobs whose tag fell into the
// revocation set while they waited — a revoked tag's verdict is already
// known, so burning a worker slot (and making the client wait) on its
// signature would be wasted work. A job the flush does not reach (its
// verification is running, or it parks a moment later) re-checks
// revocation in VerifyMiss or VerifyShared, leader or follower, so nothing
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
// forwarder periodically advertises its validated-tag Bloom filter there
// (see Config.BFSyncInterval), so a client roaming to that neighbor hits
// a warm filter instead of re-paying signature verification.
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

// syncLoop periodically advertises the Bloom filter to the registered
// sync peers.
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

// SyncBF sends the node's BF-sync advert — the whole filter
// (node.Core.BFAdvert) — to every live sync peer, so a
// peer attached or redialed since the last call loses nothing. It is
// called from the BFSyncInterval ticker and may be called directly to
// force an advertisement (tests, handover hooks). Peers whose face died
// are dropped.
func (f *Forwarder) SyncBF() {
	f.syncMu.Lock()
	defer f.syncMu.Unlock()
	if len(f.syncPeers) == 0 {
		return
	}
	m := f.node.BFAdvert(f.cfg.ID)
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
		f.m.syncWordsOut.Add(uint64(len(m.Words)))
	}
	f.syncPeers = live
}
