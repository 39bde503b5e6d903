package network

import (
	"fmt"
	"time"

	"github.com/tactic-icn/tactic/internal/bloom"
	"github.com/tactic-icn/tactic/internal/core"
)

// Simulated lifecycle control plane. The live stack carries revocation
// pushes, epoch rotations, and neighbor BF adverts as control TLVs
// flooded face-to-face (internal/forwarder); the simulator models the
// same state transitions as network-wide operations scheduled on the
// event engine, so scenarios (and the conformance oracle) exercise
// identical enforcement semantics without modelling the control
// traffic itself.

// routers calls fn for every installed TACTIC router node.
func (n *Network) routers(fn func(*RouterNode)) {
	for _, node := range n.nodes {
		if r, ok := node.(*RouterNode); ok {
			fn(r)
		}
	}
}

// PushRevocation applies a revocation-set update to every router — the
// simulated equivalent of a CtrlRevoke flood reaching the whole
// deployment. It returns the number of routers whose set advanced.
func (n *Network) PushRevocation(version uint64, full bool, ids []core.TagID) int {
	applied := 0
	n.routers(func(r *RouterNode) {
		if r.tactic.ApplyRevocation(version, full, ids) {
			applied++
		}
	})
	return applied
}

// RotateEpochs orders every router to rotate its Bloom filter to epoch —
// the simulated CtrlRotate flood. It returns the number of routers that
// rotated (stale epochs are ignored per router).
func (n *Network) RotateEpochs(epoch uint64) int {
	rotated := 0
	n.routers(func(r *RouterNode) {
		if r.tactic.RotateEpoch(epoch) {
			rotated++
		}
	})
	return rotated
}

// SyncEdgeBFs performs one full-mesh neighbor BF synchronisation round:
// every edge router's validated-tag filter words are OR-merged into
// every other edge's filter, so a client roaming between edges hits a
// warm filter (the live plane's CtrlBFSync). Returns the number of word
// deltas merged. All edge filters must share a shape.
func (n *Network) SyncEdgeBFs() (int, error) {
	var edges []*RouterNode
	n.routers(func(r *RouterNode) {
		if r.IsEdge() {
			edges = append(edges, r)
		}
	})
	if len(edges) < 2 {
		return 0, nil
	}
	// Snapshot every filter first so a round is symmetric: merges apply
	// what each edge had at the start of the round, not earlier merges.
	type snap struct {
		words []uint64
		count uint64
	}
	snaps := make([]snap, len(edges))
	for i, e := range edges {
		bf := e.tactic.Bloom()
		snaps[i] = snap{words: bf.Words(), count: bf.Count()}
	}
	// running tracks each receiver's expected element count as the round
	// progresses, so absorbing several senders converges on the round
	// maximum (the live plane's pairwise max(src, dst) semantics) instead
	// of summing every sender's surplus — which would over-count the
	// union and ratchet the filters into spurious saturation resets.
	running := make([]uint64, len(edges))
	for i := range edges {
		running[i] = snaps[i].count
	}
	merged := 0
	for i, src := range edges {
		deltas := bloom.DiffWords(nil, snaps[i].words)
		if len(deltas) == 0 {
			continue
		}
		srcBF := src.tactic.Bloom()
		for j, dst := range edges {
			if i == j {
				continue
			}
			var added uint64
			if snaps[i].count > running[j] {
				added = snaps[i].count - running[j]
			}
			if err := dst.tactic.Bloom().MergeWords(srcBF.Bits(), srcBF.Hashes(), deltas, added); err != nil {
				return merged, fmt.Errorf("network: BF sync %s -> %s: %w", src.id(), dst.id(), err)
			}
			running[j] += added
			merged += len(deltas)
		}
	}
	return merged, nil
}

// ScheduleBFSync runs SyncEdgeBFs every interval of virtual time until
// the horizon (exclusive), starting one interval after start.
func (n *Network) ScheduleBFSync(start time.Time, interval time.Duration, horizon time.Time) {
	next := start.Add(interval)
	if !next.Before(horizon) {
		return
	}
	n.Engine.ScheduleAt(next, func() {
		n.SyncEdgeBFs() //nolint:errcheck // shape mismatch cannot occur among uniformly-configured edges
		n.ScheduleBFSync(next, interval, horizon)
	})
}
