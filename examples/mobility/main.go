// Mobility simulates the paper's §9 future work ("test our mechanism in
// a real testbed under nodes mobility") and the §1 motivation ("the
// mobile client seamlessly resumes its content retrieval when it
// connects to its new base station"): vehicles roaming across the
// wireless edge, handing over between access points while streaming
// content under TACTIC.
//
// The run compares three mobility regimes on an identical topology,
// workload, and seed:
//
//   - AP-bound tags (the paper's §4.A rule): each handover invalidates
//     the client's tags — their recorded access path no longer matches
//     the new location — so the client re-registers at every hop and
//     the new edge re-validates from scratch.
//   - Roaming grants (the lifecycle extension): each provider mints
//     tags carrying the AccessPathAny wildcard, so the tag
//     survives the move — but each new edge's Bloom filter is cold, so
//     the client re-pays signature verification at every hop.
//   - Roaming grants + neighbor BF sync: edges also advertise their
//     validated-tag Bloom filters to each other, so a handed-over
//     client hits a warm filter at the new edge — one verification per
//     grant for the whole run, no re-registration, ever.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/experiment"
	"github.com/tactic-icn/tactic/internal/sim"
	"github.com/tactic-icn/tactic/internal/topology"
)

const (
	duration     = 120 * time.Second
	handoverGap  = 15 * time.Second
	mobileCount  = 4
	firstHandoff = 20 * time.Second
	// grantAt is when the providers upgrade the mobile clients
	// to roaming tags — after their first in-band registration (which
	// also delivers their content keys).
	grantAt = 10 * time.Second
	// syncEvery is the neighbor BF advertisement period.
	syncEvery = 5 * time.Second
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// mobilityStats summarises one regime's run.
type mobilityStats struct {
	handovers  int
	mobileReq  uint64
	mobileRecv uint64
	mobileRegs uint64
	edgeVerifs uint64
	edgeResets uint64
	provVerifs uint64
	tagQRate   float64
}

func runRegime(roaming, sync bool) (*mobilityStats, error) {
	dep, err := experiment.Build(experiment.Scenario{
		Name: "mobility",
		Topology: topology.Config{
			CoreRouters: 24,
			EdgeRouters: 8, // eight roadside APs to roam across
			Providers:   2,
			Clients:     12,
			Attackers:   0,
		},
		Seed:               13,
		Duration:           duration,
		ObjectsPerProvider: 20,
		ChunksPerObject:    25,
		// Size the filters (identically, in all regimes) so neighbor sync
		// does not drive them into saturation resets: each edge absorbs
		// every other edge's bits, so a filter must hold roughly edges ×
		// its own load before the auto-reset stays quiet.
		BFCapacity: 4000,
		// Edges validate on BF miss so the cost a cold edge charges a
		// handed-over client is visible in the verification counters.
		Ablations: core.Config{EdgeValidateOnMiss: true},
	})
	if err != nil {
		return nil, err
	}

	aps := dep.Network.Graph.OfKind(topology.KindAccessPoint)
	st := &mobilityStats{}

	// Schedule periodic handovers for the first mobileCount clients:
	// each moves to the next AP (round robin) every handoverGap.
	for m := 0; m < mobileCount && m < len(dep.Clients); m++ {
		mover := dep.Clients[m]
		pos := m // current AP cursor
		var hop func()
		hop = func() {
			pos = (pos + 1) % len(aps)
			if err := mover.MoveTo(aps[pos]); err != nil {
				log.Printf("handover failed for %s: %v", mover.ID(), err)
			} else {
				st.handovers++
			}
			dep.Engine.Schedule(handoverGap, hop)
		}
		dep.Engine.Schedule(firstHandoff+time.Duration(m)*time.Second, hop)
	}

	if roaming {
		// Each provider mints roaming grants for the mobile clients once
		// their in-band registration has delivered content keys; edges
		// advertise their Bloom filters to each other for the rest of the run.
		dep.Engine.Schedule(grantAt, func() {
			for m := 0; m < mobileCount && m < len(dep.ClientIdentities); m++ {
				cl := dep.ClientIdentities[m]
				for _, node := range dep.Providers {
					roam, err := node.Provider().Issue(cl.KeyLocator(), 3, core.AccessPathAny,
						sim.Epoch.Add(duration+time.Hour))
					if err != nil {
						log.Printf("roaming grant failed: %v", err)
						continue
					}
					if err := cl.StoreRegistration(node.Provider().Prefix(),
						&core.RegistrationResponse{Tag: roam}); err != nil {
						log.Printf("roaming grant install failed: %v", err)
					}
				}
			}
		})
		if sync {
			dep.Network.ScheduleBFSync(sim.Epoch.Add(grantAt), syncEvery, sim.Epoch.Add(duration))
		}
	}

	dep.Start()
	dep.RunToEnd()
	res := dep.Collect()

	for i, c := range dep.Clients {
		if i >= mobileCount {
			continue
		}
		cs := c.Stats()
		st.mobileReq += cs.Delivery.Requested
		st.mobileRecv += cs.Delivery.Received
		q, _ := dep.ClientIdentities[i].TagStats()
		st.mobileRegs += q
	}
	st.edgeVerifs = res.EdgeOps.Verifications
	st.edgeResets = res.EdgeOps.Resets
	st.provVerifs = res.ProviderVerifications
	st.tagQRate = res.TagQRate()
	return st, nil
}

func run() error {
	fmt.Printf("mobility: %d vehicles roaming across 8 edges (handover every %s) for %s\n\n",
		mobileCount, handoverGap, duration)

	bound, err := runRegime(false, false)
	if err != nil {
		return err
	}
	cold, err := runRegime(true, false)
	if err != nil {
		return err
	}
	warm, err := runRegime(true, true)
	if err != nil {
		return err
	}

	rate := func(recv, req uint64) float64 {
		if req == 0 {
			return 0
		}
		return float64(recv) / float64(req)
	}
	fmt.Printf("%-26s %16s %16s %16s\n", "", "AP-bound (§4.A)", "roaming, no sync", "roaming + sync")
	fmt.Printf("%-26s %16d %16d %16d\n", "completed handovers", bound.handovers, cold.handovers, warm.handovers)
	fmt.Printf("%-26s %16.4f %16.4f %16.4f\n", "mobile delivery ratio",
		rate(bound.mobileRecv, bound.mobileReq), rate(cold.mobileRecv, cold.mobileReq), rate(warm.mobileRecv, warm.mobileReq))
	fmt.Printf("%-26s %16d %16d %16d\n", "mobile tag registrations", bound.mobileRegs, cold.mobileRegs, warm.mobileRegs)
	fmt.Printf("%-26s %16.2f %16.2f %16.2f\n", "network tag rate Q (/s)", bound.tagQRate, cold.tagQRate, warm.tagQRate)
	fmt.Printf("%-26s %16d %16d %16d\n", "edge sig verifications", bound.edgeVerifs, cold.edgeVerifs, warm.edgeVerifs)
	fmt.Printf("%-26s %16d %16d %16d\n", "edge BF resets", bound.edgeResets, cold.edgeResets, warm.edgeResets)
	fmt.Printf("%-26s %16d %16d %16d\n", "provider verifications", bound.provVerifs, cold.provVerifs, warm.provVerifs)

	fmt.Println("\nAP-bound handover cost: one registration round trip per provider at every new")
	fmt.Println("location. With lifecycle roaming grants the tag survives the move, and neighbor")
	fmt.Println("BF sync means the new edge already vouches for it — no re-registration, no")
	fmt.Println("second signature verification, caches keep serving.")
	return nil
}
