package experiment

import (
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/topology"
)

// smallScenario builds a fast scenario for integration tests.
func smallScenario(seed int64) Scenario {
	return Scenario{
		Name: "test",
		Topology: topology.Config{
			CoreRouters: 12,
			EdgeRouters: 4,
			Providers:   2,
			Clients:     6,
			Attackers:   5,
		},
		Seed:               seed,
		Duration:           30 * time.Second,
		ObjectsPerProvider: 10,
		ChunksPerObject:    10,
	}
}

func TestRunSmallScenario(t *testing.T) {
	res, err := Run(smallScenario(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Events == 0 {
		t.Fatal("no events processed")
	}
	// Clients must fetch successfully.
	if res.ClientDelivery.Requested == 0 {
		t.Fatal("clients requested nothing")
	}
	ratio := res.ClientDelivery.Ratio()
	if ratio < 0.95 {
		t.Errorf("client delivery ratio = %.4f (%d/%d), want >= 0.95; drops: %v",
			ratio, res.ClientDelivery.Received, res.ClientDelivery.Requested, res.Drops)
	}
	// Attackers must be blocked (Table IV's headline result).
	if res.AttackerDelivery.Requested == 0 {
		t.Fatal("attackers requested nothing")
	}
	aRatio := res.AttackerDelivery.Ratio()
	if aRatio > 0.01 {
		t.Errorf("attacker delivery ratio = %.4f (%d/%d), want ~0",
			aRatio, res.AttackerDelivery.Received, res.AttackerDelivery.Requested)
	}
	// Tags flowed: clients re-register on the 10s TTL.
	if res.RegistrationsIssued == 0 {
		t.Error("no tags issued")
	}
	if res.TagQRate() <= 0 || res.TagRRate() <= 0 {
		t.Errorf("tag rates Q=%.2f R=%.2f, want > 0", res.TagQRate(), res.TagRRate())
	}
	// Latency was measured.
	if res.ClientLatency.Count() == 0 || res.ClientLatency.Mean() <= 0 {
		t.Error("no latency samples")
	}
	// Router ops: lookups must dominate verifications at the edge
	// (Fig. 7's shape).
	if res.EdgeOps.Lookups == 0 {
		t.Error("no edge BF lookups")
	}
	if res.EdgeOps.Verifications > res.EdgeOps.Lookups {
		t.Errorf("edge verifications (%d) exceed lookups (%d)",
			res.EdgeOps.Verifications, res.EdgeOps.Lookups)
	}
}

func TestRunDeterministicAcrossSameSeed(t *testing.T) {
	a, err := Run(smallScenario(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallScenario(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.ClientDelivery != b.ClientDelivery {
		t.Errorf("same seed, different client delivery: %+v vs %+v", a.ClientDelivery, b.ClientDelivery)
	}
	if a.AttackerDelivery != b.AttackerDelivery {
		t.Errorf("same seed, different attacker delivery: %+v vs %+v", a.AttackerDelivery, b.AttackerDelivery)
	}
	if a.Events != b.Events {
		t.Errorf("same seed, different event counts: %d vs %d", a.Events, b.Events)
	}
	if a.EdgeOps.Lookups != b.EdgeOps.Lookups ||
		a.EdgeOps.Insertions != b.EdgeOps.Insertions ||
		a.EdgeOps.Verifications != b.EdgeOps.Verifications {
		t.Errorf("same seed, different edge ops: %+v vs %+v", a.EdgeOps, b.EdgeOps)
	}
}

func TestRunAttackersBlockedPerKind(t *testing.T) {
	s := smallScenario(3)
	s.Duration = 40 * time.Second
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	// Every threat scenario must appear (5 attackers, mix of 5 kinds).
	for _, kind := range DefaultAttackerMix() {
		d, ok := res.AttackerByKind[kind.String()]
		if !ok || d.Requested == 0 {
			t.Errorf("attacker kind %v issued no requests", kind)
			continue
		}
		if d.Ratio() > 0.02 {
			t.Errorf("attacker kind %v delivery ratio %.4f (%d/%d), want ~0",
				kind, d.Ratio(), d.Received, d.Requested)
		}
	}
	// The designed defences actually fired.
	if res.Drops["access_path"] == 0 {
		t.Error("shared-tag attacker never hit the access-path check")
	}
	if res.Drops["expired"] == 0 {
		t.Error("expired-tag attacker never hit the expiry pre-check")
	}
}

func TestRunPublicContentBypass(t *testing.T) {
	s := smallScenario(4)
	s.ContentLevels = []core.AccessLevel{core.Public}
	s.AttackerMix = []AttackerKind{AttackNoTag}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	// With all content Public, even tagless attackers retrieve freely.
	if res.AttackerDelivery.Ratio() < 0.9 {
		t.Errorf("tagless users should fetch public content: ratio = %.4f (%d/%d), drops %v",
			res.AttackerDelivery.Ratio(), res.AttackerDelivery.Received, res.AttackerDelivery.Requested, res.Drops)
	}
	// And routers never verify a signature for it.
	if res.EdgeOps.Verifications+res.CoreOps.Verifications > res.RegistrationsIssued {
		t.Errorf("public content triggered %d router verifications",
			res.EdgeOps.Verifications+res.CoreOps.Verifications)
	}
}

func TestRunCacheHitsOccur(t *testing.T) {
	res, err := Run(smallScenario(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.CSHits == 0 {
		t.Error("no content-store hits: caching is not exercised")
	}
}

func TestRunECDSAScheme(t *testing.T) {
	if testing.Short() {
		t.Skip("real crypto in -short mode")
	}
	s := smallScenario(6)
	s.Duration = 10 * time.Second
	s.UseECDSA = true
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.ClientDelivery.Ratio() < 0.9 {
		t.Errorf("ECDSA run client ratio = %.4f", res.ClientDelivery.Ratio())
	}
	if res.AttackerDelivery.Ratio() > 0.02 {
		t.Errorf("ECDSA run attacker ratio = %.4f", res.AttackerDelivery.Ratio())
	}
}

func TestRunInvalidTopology(t *testing.T) {
	s := smallScenario(1)
	s.PaperTopology = 9
	if _, err := Run(s); err == nil {
		t.Error("invalid paper topology accepted")
	}
}
