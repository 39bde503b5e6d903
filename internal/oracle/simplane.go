package oracle

import (
	"fmt"
	"sort"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/network"
	"github.com/tactic-icn/tactic/internal/sim"
)

// PlaneOutcome is what one plane's client observed for one request.
type PlaneOutcome struct {
	// Delivered reports content reached the client, alone or alongside
	// a NACK: either way the client holds it.
	Delivered bool
	// Nacked reports an explicit NACK reached the client; Delivered and
	// Nacked both false means the request timed out silently.
	Nacked bool
	// Reason is the NACK's denial label. The sim plane passes the error
	// in-process; the live plane decodes the one-byte reason code a NACK
	// carries on the wire (TLV 0xF8) back to the same label.
	Reason string
}

// PlaneResult is one plane's full observation of a scenario.
type PlaneResult struct {
	Outcomes []PlaneOutcome
	// CS maps router ID -> sorted content name keys cached there.
	CS map[string][]string
}

// Sim-plane timing: steps are StepGap apart on the virtual clock, and
// both the AP pending records and the router PIT lifetime are shorter
// than the gap, so nothing pending survives into the next step — the
// property that lets the oracle treat steps as independent.
const (
	simStepGap     = 5 * time.Second
	simAPLifetime  = 2 * time.Second
	simPITLifetime = 2 * time.Second
)

// floodSimDelays is the deterministic delay model flood scenarios
// charge: σ = 0 everywhere (samples are exactly the mean), and a
// signature verification costs 200 ms of virtual time — orders of
// magnitude above the burst's per-packet link serialisation (~216 µs
// for a tag-bearing Interest on the 10 Mbps edge link) and far below
// the 5 s step gap, so burst verifications pile up against the budget
// within the step and fully drain before the next one.
func floodSimDelays() sim.OpDelays {
	return sim.OpDelays{
		BFLookup:  sim.NormalDelay{Mean: time.Microsecond},
		BFInsert:  sim.NormalDelay{Mean: time.Microsecond},
		SigVerify: sim.NormalDelay{Mean: 200 * time.Millisecond},
	}
}

// simExpiry places a tag spec's T_e on the sim plane's virtual clock.
func simExpiry(scn *Scenario, t TagSpec) time.Time {
	switch t.Kind {
	case TagPreExpired:
		return sim.Epoch.Add(-time.Second)
	case TagMidRun:
		// Strictly between the last pre-boundary step and the boundary
		// step (link latencies are milliseconds, far from the margin).
		return sim.Epoch.Add(time.Duration(scn.Boundary)*simStepGap - simStepGap/2)
	}
	return sim.Epoch.Add(1000 * time.Hour)
}

// simClient is a consumer endpoint: it records what comes back for the
// harness. Matching is FIFO per (name, tag) within the current step
// only — silently denied requests from earlier steps must never absorb
// a later delivery.
type simClient struct {
	h    *simHarness
	user int
}

func (c *simClient) HandleInterest(i *ndn.Interest, from ndn.FaceID) {}

func (c *simClient) HandleData(d *ndn.Data, from ndn.FaceID) {
	c.h.onClientData(c.user, d)
}

// simOpen is one outstanding request at a sim client.
type simOpen struct {
	req     int
	nameKey string
	tagKey  string
}

type simHarness struct {
	outcomes []PlaneOutcome
	open     map[int][]simOpen // user -> outstanding, current step only
}

func (h *simHarness) onClientData(user int, d *ndn.Data) {
	wantTag := ""
	if d.Tag != nil {
		wantTag = string(d.Tag.CacheKey())
	}
	nameKey := d.Name.Key()
	for i, o := range h.open[user] {
		if o.nameKey != nameKey || o.tagKey != wantTag {
			continue
		}
		h.open[user] = append(h.open[user][:i], h.open[user][i+1:]...)
		h.outcomes[o.req] = PlaneOutcome{Delivered: d.Content != nil, Nacked: d.Nack, Reason: core.ReasonLabel(d.NackReason)}
		return
	}
	// Unmatched data (e.g. a duplicate delivery): ignore.
}

// RunSim replays a scenario on the discrete-event plane
// (internal/network routers driven by internal/sim) and reports what
// each client observed plus the routers' end-state content stores.
func RunSim(scn *Scenario, info *topoInfo, tactic core.Config) (*PlaneResult, error) {
	mat, err := buildMaterial(scn, info,
		func(t TagSpec) time.Time { return simExpiry(scn, t) },
		func(edgePos int) core.AccessPath {
			return core.EmptyAccessPath.Accumulate(info.apID[edgePos])
		})
	if err != nil {
		return nil, err
	}

	engine := sim.NewEngine()
	streams := sim.NewStreams(scn.Seed)
	net := network.New(engine, info.g, streams)

	rcfg := network.RouterConfig{
		BFCapacity:  500,
		BFMaxFPP:    1e-4,
		CSCapacity:  1024,
		PITLifetime: simPITLifetime,
		Tactic:      tactic,
	}
	if scn.Flood != nil {
		// The flood burst needs verifications to *occupy* virtual time,
		// or the admission queue would release each face's charges
		// between the burst's serialized arrivals.
		// A fixed zero-σ verify delay far above the burst's total wire
		// time plays the role the gated verifier plays on the live
		// plane: every burst verification is still outstanding when the
		// last burst Interest arrives, deterministically.
		rcfg.VerifyBudget = scn.Flood.Budget
		net.ChargeDelays = true
		net.Delays = floodSimDelays()
	}
	routers := make(map[int]*network.RouterNode)
	for _, idx := range info.cores {
		r, err := network.NewRouterNode(net, idx, false, mat.registry, streams.Stream(info.nodeID(idx)), rcfg)
		if err != nil {
			return nil, err
		}
		net.SetNode(idx, r)
		routers[idx] = r
	}
	for _, idx := range info.edges {
		r, err := network.NewRouterNode(net, idx, true, mat.registry, streams.Stream(info.nodeID(idx)), rcfg)
		if err != nil {
			return nil, err
		}
		net.SetNode(idx, r)
		routers[idx] = r
	}
	for p, idx := range info.providers {
		node, err := network.NewOriginNode(net, idx, mat.providers[p], mat.registry, streams.Stream(info.nodeID(idx)), rcfg)
		if err != nil {
			return nil, err
		}
		for ci, c := range scn.Contents {
			if c.Provider == p {
				node.AddContent(mat.contents[ci])
			}
		}
		net.SetNode(idx, node)
	}
	for _, idx := range info.aps {
		net.SetNode(idx, network.NewAPNode(net, idx, simAPLifetime))
	}
	// Routes: every router follows the provider's BFS tree.
	for p := range info.providers {
		prefix := info.provPrefix(p)
		for idx, r := range routers {
			next := info.parent[p][idx]
			if next < 0 {
				continue
			}
			r.FIB().Insert(prefix, net.FaceToward(idx, next))
		}
	}

	// Seed the scenario's revocation set everywhere before any request —
	// the simulated equivalent of the issuance service's CtrlRevoke push
	// having flooded the deployment. The set is populated even when the
	// plane under test disables the revocation *check*: the injected bug
	// is "forgot to consult the set", not "never received the push".
	if len(mat.revoked) > 0 {
		net.Control(&ndn.Control{Kind: ndn.CtrlRevoke, Version: 1, Full: true, Revoked: mat.revoked})
	}

	h := &simHarness{
		outcomes: make([]PlaneOutcome, len(scn.Requests)),
		open:     make(map[int][]simOpen),
	}
	for u, idx := range info.users {
		net.SetNode(idx, &simClient{h: h, user: u})
	}

	// Schedule the workload: a step-start event (clearing the previous
	// step's dead outstanding records) followed by that step's
	// injections, all at the step instant; engine FIFO keeps the order.
	nonce := uint64(0)
	step := -1
	for ri := range scn.Requests {
		r := scn.Requests[ri]
		at := sim.Epoch.Add(time.Duration(r.Step) * simStepGap)
		if r.Step != step {
			step = r.Step
			engine.ScheduleAt(at, func() {
				for u := range h.open {
					delete(h.open, u)
				}
			})
		}
		ri := ri
		nonce++
		n := nonce
		engine.ScheduleAt(at, func() {
			var tag *core.Tag
			tagKey := ""
			if r.Tag >= 0 {
				tag = mat.tags[r.Tag]
				tagKey = string(tag.CacheKey())
			}
			name := info.contentName(scn, r.Content)
			h.open[r.User] = append(h.open[r.User], simOpen{req: ri, nameKey: name.Key(), tagKey: tagKey})
			i := &ndn.Interest{Name: name, Kind: ndn.KindContent, Nonce: n, Tag: tag}
			net.SendInterest(info.users[r.User], 0, i, 0)
		})
	}
	engine.Run()

	res := &PlaneResult{Outcomes: h.outcomes, CS: make(map[string][]string)}
	for idx, r := range routers {
		names := r.CSNames()
		sort.Strings(names)
		res.CS[info.nodeID(idx)] = names
	}
	if len(res.CS) != len(info.cores)+len(info.edges) {
		return nil, fmt.Errorf("oracle: sim plane lost a router")
	}
	return res, nil
}
