package network

import (
	"fmt"
	"time"

	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/node"
)

// Simulated lifecycle control plane. The live stack floods revocation
// pushes and epoch rotations face to face and sends BF-sync adverts to
// configured peers (internal/forwarder); the simulator delivers the same
// ndn.Control frames to every router at once, on the event engine. Both
// planes judge a frame with the one node.Core.OnControl, so scenarios
// (and the conformance oracle) exercise identical control semantics
// without modelling the control traffic itself.

// routers calls fn for every installed TACTIC router node.
func (n *Network) routers(fn func(*RouterNode)) {
	for _, nd := range n.nodes {
		if r, ok := nd.(*RouterNode); ok {
			fn(r)
		}
	}
}

// HandleControl applies one control frame to the router through its node
// core. The simulator's delivery is network-wide already, so the step's
// Flood is not acted on, and no verification is ever parked between
// handlers for FlushRevoked to refuse.
func (r *RouterNode) HandleControl(m *ndn.Control) node.ControlStep { return r.core.OnControl(m) }

// Control delivers one control frame to every router — the simulated
// flood, instantaneous and network-wide — and returns how many applied it
// (a router whose state it does not advance ignores it).
func (n *Network) Control(m *ndn.Control) int {
	applied := 0
	n.routers(func(r *RouterNode) {
		if r.HandleControl(m).Outcome == node.ControlApplied {
			applied++
		}
	})
	return applied
}

// SyncEdgeBFs performs one full-mesh neighbor BF synchronisation round:
// every edge router's advert is built first, then delivered to every
// other edge, so a round is symmetric (merges apply what each edge held at
// the start of the round) and a client roaming between edges hits a warm
// filter. Each receiver ends the round with the union of the filters,
// and its FPP is the union's. Returns the number of advertised words
// merged. All edge filters must share a shape.
func (n *Network) SyncEdgeBFs() (int, error) {
	var edges []*RouterNode
	n.routers(func(r *RouterNode) {
		if r.IsEdge() {
			edges = append(edges, r)
		}
	})
	adverts := make([]*ndn.Control, len(edges))
	for i, e := range edges {
		adverts[i] = e.core.BFAdvert(e.id())
	}
	merged := 0
	for i, m := range adverts {
		for j, dst := range edges {
			if i == j {
				continue
			}
			if st := dst.HandleControl(m); st.Err != nil {
				return merged, fmt.Errorf("network: BF sync %s -> %s: %w", m.Origin, dst.id(), st.Err)
			}
			merged += len(m.Words)
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
