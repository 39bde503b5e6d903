// Smartmeter simulates the paper's motivating M2M scenario (§1: "smart
// meters, asset tracking, and video surveillance"): a utility provider
// serves firmware and configuration objects to a fleet of constrained
// smart meters over a TACTIC-protected ISP edge.
//
// Mid-run, one meter is compromised and the utility revokes it. Because
// TACTIC revocation is purely time-based, the meter keeps fetching until
// its current tag expires (the 10 s TTL window) and is locked out
// afterwards — no content re-encryption, no router reconfiguration, no
// always-online authentication server involved. The example measures the
// meter's deliveries before and after the revocation takes effect.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/tactic-icn/tactic/internal/experiment"
	"github.com/tactic-icn/tactic/internal/topology"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		revokeAt = 60 * time.Second
		ttl      = 10 * time.Second
		end      = 120 * time.Second
	)
	dep, err := experiment.Build(experiment.Scenario{
		Name: "smartmeter",
		Topology: topology.Config{
			CoreRouters: 20,
			EdgeRouters: 6,
			Providers:   2, // the utility and a firmware mirror
			Clients:     24,
			Attackers:   0,
		},
		Seed:               7,
		Duration:           end,
		TagTTL:             ttl,
		ObjectsPerProvider: 20, // firmware images, config bundles, tariff tables
		ChunksPerObject:    20,
		ChunkSize:          512, // constrained-device sized chunks
	})
	if err != nil {
		return err
	}

	fmt.Printf("smart-meter fleet: %d meters, %d providers, tag TTL %s\n",
		len(dep.Clients), len(dep.Providers), ttl)

	dep.Start()
	dep.RunUntil(revokeAt)

	// Meter 0 is found compromised: revoke it at every provider. Its
	// current tag remains valid until T_e — TACTIC's revocation window.
	compromised := dep.Clients[0]
	identity := dep.ClientIdentities[0]
	before := compromised.Stats().Delivery
	for _, p := range dep.Providers {
		p.Provider().Unenroll(identity.KeyLocator())
	}
	fmt.Printf("t=%s: meter %s revoked (delivered so far: %d chunks)\n",
		revokeAt, compromised.ID(), before.Received)

	// Let the tag expire, then measure the lockout window.
	dep.RunUntil(revokeAt + ttl)
	atExpiry := compromised.Stats().Delivery
	dep.RunUntil(end)
	final := compromised.Stats().Delivery

	inWindow := atExpiry.Received - before.Received
	afterWindow := final.Received - atExpiry.Received
	fmt.Printf("t=%s..%s (revocation window, old tag still valid): %d chunks delivered\n",
		revokeAt, revokeAt+ttl, inWindow)
	fmt.Printf("t=%s..%s (after tag expiry): %d chunks delivered\n",
		revokeAt+ttl, end, afterWindow)
	if afterWindow == 0 {
		fmt.Println("revoked meter locked out exactly one TTL after revocation — no re-encryption needed")
	} else {
		fmt.Println("WARNING: revoked meter still receiving after its tag expired")
	}

	// The rest of the fleet is unaffected.
	res := dep.Collect()
	fleet := res.ClientDelivery
	fleet.Requested -= final.Requested
	fleet.Received -= final.Received
	fmt.Printf("\nrest of fleet: %d/%d chunks delivered (%.4f)\n",
		fleet.Received, fleet.Requested, fleet.Ratio())
	fmt.Printf("tags issued by providers: %d (Q %.1f/s)\n", res.RegistrationsIssued, res.TagQRate())
	fmt.Printf("router signature verifications: edge %d, core %d — BF lookups: edge %d, core %d\n",
		res.EdgeOps.Verifications, res.CoreOps.Verifications,
		res.EdgeOps.Lookups, res.CoreOps.Lookups)
	return nil
}
