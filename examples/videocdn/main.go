// Videocdn simulates a video-surveillance edge CDN (another of the
// paper's §1 motivating applications) with TACTIC's hierarchical access
// levels (§5):
//
//   - AL 0 (Public) — preview thumbnails, served to anyone, no tag work
//   - AL 1          — standard streams, for basic subscribers and up
//   - AL 2          — full-resolution archives, premium subscribers only
//
// Half the viewers hold premium subscriptions (AL_u = 2), half basic
// (AL_u = 1); a crowd of anonymous users sends tagless requests. The
// run shows the hierarchical rule AL_D <= AL_u end to end: premium
// viewers fetch everything, basic viewers lose exactly the premium
// share, anonymous users only ever receive Public previews — all of it
// enforced by routers, with caches still serving the hot chunks.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/experiment"
	"github.com/tactic-icn/tactic/internal/node"
	"github.com/tactic-icn/tactic/internal/topology"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dep, err := experiment.Build(experiment.Scenario{
		Name: "videocdn",
		Topology: topology.Config{
			CoreRouters: 24,
			EdgeRouters: 8,
			Providers:   3, // three camera operators
			Clients:     16,
			Attackers:   6, // the anonymous crowd (tagless requests)
		},
		Seed:     11,
		Duration: 90 * time.Second,
		// One third previews, one third standard, one third premium.
		ContentLevels:      []core.AccessLevel{core.Public, 1, 2},
		ClientLevel:        2, // premium by default; half get downgraded below
		AttackerMix:        []experiment.AttackerKind{experiment.AttackNoTag},
		ObjectsPerProvider: 30,
		ChunksPerObject:    30,
		ChunkSize:          1200, // video-chunk sized
		CSCapacity:         2000,
	})
	if err != nil {
		return err
	}

	// Downgrade every second viewer to a basic subscription (AL_u = 1).
	basic := make(map[string]bool)
	for i, identity := range dep.ClientIdentities {
		if i%2 == 0 {
			continue
		}
		basic[dep.Clients[i].ID()] = true
		for _, p := range dep.Providers {
			p.Provider().Enroll(identity.KeyLocator(), dep.ClientKeys[i], 1)
		}
	}
	fmt.Printf("video CDN: %d viewers (%d premium, %d basic), %d anonymous users, 3 operators\n",
		len(dep.Clients), len(dep.Clients)-len(basic), len(basic), len(dep.Attackers))

	dep.Start()
	dep.RunToEnd()

	var premium, basicD struct {
		req, recv uint64
	}
	for i, c := range dep.Clients {
		st := c.Stats()
		if basic[dep.Clients[i].ID()] {
			basicD.req += st.Delivery.Requested
			basicD.recv += st.Delivery.Received
		} else {
			premium.req += st.Delivery.Requested
			premium.recv += st.Delivery.Received
		}
	}
	res := dep.Collect()

	rate := func(recv, req uint64) float64 {
		if req == 0 {
			return 0
		}
		return float64(recv) / float64(req)
	}
	fmt.Printf("\npremium viewers (AL_u=2): %6d/%6d chunks (%.3f) — all levels\n",
		premium.recv, premium.req, rate(premium.recv, premium.req))
	fmt.Printf("basic viewers   (AL_u=1): %6d/%6d chunks (%.3f) — premium archive blocked (~1/3 of catalog)\n",
		basicD.recv, basicD.req, rate(basicD.recv, basicD.req))
	fmt.Printf("anonymous users (no tag): %6d/%6d chunks (%.3f) — public previews only (~1/3 of catalog)\n",
		res.AttackerDelivery.Received, res.AttackerDelivery.Requested, res.AttackerDelivery.Ratio())

	hitRatio := 0.0
	if res.CSHits+res.CSMisses > 0 {
		hitRatio = float64(res.CSHits) / float64(res.CSHits+res.CSMisses)
	}
	fmt.Printf("\nedge caching kept working under enforcement: %d cache hits (%.3f hit ratio)\n", res.CSHits, hitRatio)
	fmt.Printf("answers the edge did not deliver (NACKed for insufficient level, or private content to a tagless requester; Protocol 2): %d\n",
		res.Drops[node.DropUndeliverable])
	return nil
}
