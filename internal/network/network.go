// Package network assembles a simulated TACTIC deployment: topology
// nodes become packet-processing state machines (TACTIC routers — edge,
// core, and each provider's origin, one driver of the node core in three
// roles — wireless access points, and consumer endpoints), connected
// by links with bandwidth, latency, and loss, all driven by the
// discrete-event engine. Computational delays for Bloom-filter and
// signature operations are charged from a configurable delay model,
// reproducing the paper's §8.B methodology. Traced requests are recorded
// hop by hop with the live stack's obs spans on the engine's clock.
package network

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"github.com/tactic-icn/tactic/internal/enforce"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/obs"
	"github.com/tactic-icn/tactic/internal/sim"
	"github.com/tactic-icn/tactic/internal/topology"
)

// Node is a packet-processing endpoint or router. Handlers run inline in
// event context; they must not block.
type Node interface {
	// HandleInterest processes an Interest arriving on a face.
	HandleInterest(i *ndn.Interest, from ndn.FaceID)
	// HandleData processes a Data arriving on a face.
	HandleData(d *ndn.Data, from ndn.FaceID)
}

// Network connects nodes over the topology's links and routes packets
// between them through the simulation engine.
type Network struct {
	// Engine is the discrete-event scheduler driving the network.
	Engine *sim.Engine
	// Graph is the underlying topology.
	Graph *topology.Graph
	// Delays is the computational delay model charged by routers.
	Delays sim.OpDelays
	// ChargeDelays enables computational delay injection.
	ChargeDelays bool
	// Spans, when set before nodes are created, turns tracing on: every
	// node records the head-sampled packets it handles as obs spans in
	// virtual time, JSON lines written here (obs.Collector.ReadSpans
	// assembles them).
	Spans io.Writer

	nodes []Node
	// links[e][0] carries A->B traffic for graph edge e, links[e][1]
	// carries B->A.
	links [][2]*sim.Link
	// reverseFace[n][f] is the FaceID at the peer that points back at
	// node n for n's face f.
	reverseFace [][]ndn.FaceID
	lossRNG     *rand.Rand
}

// New creates a network over the graph. Node slots start empty; install
// them with SetNode before running.
func New(engine *sim.Engine, g *topology.Graph, streams *sim.Streams) *Network {
	n := &Network{
		Engine:  engine,
		Graph:   g,
		nodes:   make([]Node, len(g.Nodes)),
		links:   make([][2]*sim.Link, len(g.Edges)),
		lossRNG: streams.Stream("network-loss"),
	}
	for i, e := range g.Edges {
		n.links[i] = [2]*sim.Link{sim.NewLink(e.Spec), sim.NewLink(e.Spec)}
	}
	n.reverseFace = make([][]ndn.FaceID, len(g.Nodes))
	for idx := range g.Nodes {
		n.reverseFace[idx] = make([]ndn.FaceID, len(g.Adj[idx]))
		for f, nb := range g.Adj[idx] {
			// Find our index in the peer's adjacency.
			rf := ndn.FaceNone
			for pf, pnb := range g.Adj[nb.Node] {
				if pnb.Node == idx && pnb.Edge == nb.Edge {
					rf = ndn.FaceID(pf)
					break
				}
			}
			if rf == ndn.FaceNone {
				panic(fmt.Sprintf("network: asymmetric adjacency at node %d face %d", idx, f))
			}
			n.reverseFace[idx][f] = rf
		}
	}
	return n
}

// SetNode installs the node implementation for a graph index.
func (n *Network) SetNode(index int, node Node) {
	n.nodes[index] = node
}

// Tracer returns a node's tracer, nil unless Spans is set: its spans are
// labelled with node and role, timed by the engine's clock, and recorded
// only for wire-sampled packets (sample 0: consumers own the
// head-sampling decision, and their root spans always record).
func (n *Network) Tracer(node, role string) *obs.Tracer {
	t := obs.NewTracerRecorder(node, 0, n.Spans, nil)
	t.SetRole(role)
	t.SetClock(n.Engine.Now)
	return t
}

// NodeAt returns the node at a graph index.
func (n *Network) NodeAt(index int) Node { return n.nodes[index] }

// FaceCount returns the number of faces of a node.
func (n *Network) FaceCount(index int) int { return len(n.Graph.Adj[index]) }

// PeerKind returns the topology kind of the neighbor on a node's face.
func (n *Network) PeerKind(index int, face ndn.FaceID) topology.Kind {
	return n.Graph.Nodes[n.Graph.Adj[index][face].Node].Kind
}

// PeerIndex returns the graph index of the neighbor on a node's face.
func (n *Network) PeerIndex(index int, face ndn.FaceID) int {
	return n.Graph.Adj[index][face].Node
}

// FaceToward returns the face of `index` whose peer is `peer`, or
// FaceNone.
func (n *Network) FaceToward(index, peer int) ndn.FaceID {
	for f, nb := range n.Graph.Adj[index] {
		if nb.Node == peer {
			return ndn.FaceID(f)
		}
	}
	return ndn.FaceNone
}

// link returns the directional link for a node's outgoing face.
func (n *Network) link(index int, face ndn.FaceID) *sim.Link {
	nb := n.Graph.Adj[index][face]
	e := n.Graph.Edges[nb.Edge]
	if e.A == index {
		return n.links[nb.Edge][0]
	}
	return n.links[nb.Edge][1]
}

// SendInterest transmits an Interest from a node out of a face after an
// optional processing delay. The packet is delivered to the peer's
// handler at link arrival time (or silently lost).
func (n *Network) SendInterest(index int, face ndn.FaceID, i *ndn.Interest, procDelay time.Duration) {
	n.send(index, face, i.WireSize(), procDelay, func(peer Node, rf ndn.FaceID) {
		peer.HandleInterest(i, rf)
	})
}

// SendData transmits a Data from a node out of a face after an optional
// processing delay.
func (n *Network) SendData(index int, face ndn.FaceID, d *ndn.Data, procDelay time.Duration) {
	n.send(index, face, d.WireSize(), procDelay, func(peer Node, rf ndn.FaceID) {
		peer.HandleData(d, rf)
	})
}

func (n *Network) send(index int, face ndn.FaceID, size int, procDelay time.Duration, deliver func(Node, ndn.FaceID)) {
	if face == ndn.FaceNone || int(face) >= len(n.Graph.Adj[index]) {
		return
	}
	peerIdx := n.Graph.Adj[index][face].Node
	peer := n.nodes[peerIdx]
	if peer == nil {
		return
	}
	depart := n.Engine.Now().Add(procDelay)
	arrival, ok := n.link(index, face).Send(depart, size, n.lossRNG)
	if !ok {
		return // lost
	}
	rf := n.reverseFace[index][face]
	n.Engine.ScheduleAt(arrival, func() { deliver(peer, rf) })
}

// Rehome moves a single-faced end device (a client or attacker) from its
// current access point to a new one — the node-mobility scenario the
// paper lists as future work (§9) and motivates in its introduction
// ("the mobile client seamlessly resumes its content retrieval when it
// connects to its new base station"). The device's one link is re-aimed
// at the new AP; in-flight packets on the old link are unaffected (they
// were already scheduled), and responses routed to the old AP die there,
// exactly as they would for a real handover.
func (n *Network) Rehome(device, newAP int) error {
	adj := n.Graph.Adj[device]
	if len(adj) != 1 {
		return fmt.Errorf("network: node %d has %d faces; only single-faced devices can move", device, len(adj))
	}
	oldNb := adj[0]
	oldAP := oldNb.Node
	if oldAP == newAP {
		return nil
	}
	edgeIdx := oldNb.Edge
	spec := n.Graph.Edges[edgeIdx].Spec

	// Detach from the old AP's adjacency.
	oldAdj := n.Graph.Adj[oldAP]
	kept := oldAdj[:0]
	for _, nb := range oldAdj {
		if nb.Edge != edgeIdx {
			kept = append(kept, nb)
		}
	}
	n.Graph.Adj[oldAP] = kept

	// Re-aim the graph edge and attach to the new AP.
	n.Graph.Edges[edgeIdx] = topology.Edge{A: device, B: newAP, Spec: spec}
	n.Graph.Adj[device][0] = topology.Neighbor{Node: newAP, Edge: edgeIdx}
	n.Graph.Adj[newAP] = append(n.Graph.Adj[newAP], topology.Neighbor{Node: device, Edge: edgeIdx})

	// Fresh links for the new attachment (the old radio association is
	// gone) and updated reverse-face maps.
	n.links[edgeIdx] = [2]*sim.Link{sim.NewLink(spec), sim.NewLink(spec)}
	n.reverseFace[device][0] = ndn.FaceID(len(n.Graph.Adj[newAP]) - 1)
	n.reverseFace[newAP] = append(n.reverseFace[newAP], 0)
	// Shrinking the old AP's adjacency shifted its face indices, so its
	// own map and every remaining neighbour's entry pointing into it
	// must be rebuilt.
	n.rebuildReverseFaces(oldAP)
	for _, nb := range n.Graph.Adj[oldAP] {
		n.rebuildReverseFaces(nb.Node)
	}
	return nil
}

// rebuildReverseFaces recomputes one node's reverse-face map.
func (n *Network) rebuildReverseFaces(idx int) {
	rf := make([]ndn.FaceID, len(n.Graph.Adj[idx]))
	for f, nb := range n.Graph.Adj[idx] {
		rf[f] = ndn.FaceNone
		for pf, pnb := range n.Graph.Adj[nb.Node] {
			if pnb.Node == idx && pnb.Edge == nb.Edge {
				rf[f] = ndn.FaceID(pf)
				break
			}
		}
	}
	n.reverseFace[idx] = rf
}

// chargeOps runs fn and samples the delay model for the Bloom-filter and
// signature operations it performed on tactic, recording the
// decomposition on sp (nil records nothing). It returns the total
// sampled processing delay. Draws come per operation in class order
// (lookups, then insertions, then verifications) whether or not a span
// records them, so traced runs reproduce untraced ones event for event.
func (n *Network) chargeOps(tactic *enforce.Router, rng *rand.Rand, sp *obs.Span, fn func()) time.Duration {
	bfBefore := tactic.Bloom().Stats()
	vBefore := tactic.Validator().Verifications()
	fn()
	if !n.ChargeDelays {
		return 0
	}
	bfAfter := tactic.Bloom().Stats()
	var total time.Duration
	for _, op := range [...]struct {
		stage string
		count uint64
		delay sim.NormalDelay
	}{
		{"bf_lookup", bfAfter.Lookups - bfBefore.Lookups, n.Delays.BFLookup},
		{"bf_insert", bfAfter.Insertions - bfBefore.Insertions, n.Delays.BFInsert},
		{"verify", tactic.Validator().Verifications() - vBefore, n.Delays.SigVerify},
	} {
		var d time.Duration
		for i := uint64(0); i < op.count; i++ {
			d += op.delay.Sample(rng)
		}
		if d > 0 {
			sp.EventDur(op.stage, d, "")
		}
		total += d
	}
	return total
}
