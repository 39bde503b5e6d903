package oracle

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/topology"
)

// TestConformanceSeeds replays generated scenarios against the oracle
// and both planes and requires zero divergences.
func TestConformanceSeeds(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rep, err := RunSeed(seed, Options{})
			if err != nil {
				t.Fatalf("RunSeed(%d): %v", seed, err)
			}
			if rep.Diverged() {
				for _, d := range rep.Divergences {
					t.Errorf("seed %d: %s", seed, d)
				}
				t.Fatalf("scenario:\n%s", rep.Scenario)
			}
		})
	}
}

// handScenario builds a hand-authored single-edge scenario (every user
// shares the one edge router, so same-(step,name) requests share a PIT
// entry) and fixes up tag HomeEdge bindings to the requesters' edge.
func handScenario(t *testing.T, contents []ContentSpec, tags []TagSpec, reqs []RequestSpec) (*Scenario, *topoInfo) {
	t.Helper()
	steps := 1
	for _, r := range reqs {
		if r.Step+1 > steps {
			steps = r.Step + 1
		}
	}
	scn := &Scenario{
		Seed:     999,
		Topo:     topology.Config{CoreRouters: 2, EdgeRouters: 1, Providers: 1, Clients: 2, AttachDegree: 2, Seed: 999},
		Steps:    steps,
		Contents: contents,
		Tags:     tags,
		Requests: reqs,
	}
	info, err := buildTopo(scn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range scn.Tags {
		scn.Tags[i].HomeEdge = info.userEdge[scn.Tags[i].User]
	}
	return scn, info
}

// TestNACKAlongsideDataSim pins the paper's §5.B trade-off on the sim
// plane (and the oracle): an upstream NACK for a forged primary tag
// carries the content alongside, so a valid requester aggregated in
// the same PIT entry is still served. The generator deliberately never
// schedules this combination (on the live plane the verdict is
// aggregation-timing-dependent — covered deterministically by
// internal/forwarder's TestNACKAlongsideDataLive); the sim plane is
// sequential, so a hand-built scenario is well-defined there.
func TestNACKAlongsideDataSim(t *testing.T) {
	scn, info := handScenario(t,
		[]ContentSpec{{Provider: 0, Object: "sec", Level: 1}},
		[]TagSpec{
			{User: 0, Provider: 0, Level: 2, Kind: TagForged},
			{User: 1, Provider: 0, Level: 2, Kind: TagValid},
		},
		[]RequestSpec{
			{Step: 0, User: 0, Content: 0, Tag: 0}, // forged primary
			{Step: 0, User: 1, Content: 0, Tag: 1}, // valid aggregated member
		})

	ref, err := RunReference(scn, info, Knobs{})
	if err != nil {
		t.Fatal(err)
	}
	if out := ref.Outcomes[0]; out.Delivered || out.Stage != StageContent || out.Reason != "forged" {
		t.Fatalf("forged primary outcome = %+v, want content-stage forged denial", out)
	}
	if out := ref.Outcomes[1]; !out.Delivered {
		t.Fatalf("valid aggregated member outcome = %+v, want delivered", out)
	}

	rep, err := RunScenario(scn, Options{SkipLive: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.Divergences {
		t.Errorf("sim diverged from oracle: %s", d)
	}
}

// TestRefSetFPInjection drives the oracle's false-positive knob. A
// forged tag riding a Public delivery teaches the edge nothing, so with
// FPRate 0 the later private request is verified upstream and denied,
// and the sim plane agrees. With FPRate 1/2 the sets hit spuriously: the
// edge set vouches for the forgery (flag F) and the content router
// re-checks only with probability F, or the content router's own set
// skips the verification. Across seeds the forgery is sometimes served
// (a false positive no verification followed, TACTIC's accepted risk)
// and otherwise caught.
func TestRefSetFPInjection(t *testing.T) {
	scn, info := handScenario(t,
		[]ContentSpec{
			{Provider: 0, Object: "open", Level: core.Public},
			{Provider: 0, Object: "sec", Level: 1},
		},
		[]TagSpec{{User: 0, Provider: 0, Level: 2, Kind: TagForged}},
		[]RequestSpec{
			{Step: 0, User: 0, Content: 0, Tag: 0}, // Public: served, nothing learnt
			{Step: 1, User: 0, Content: 1, Tag: 0}, // private: verified upstream
		})

	ref, err := RunReference(scn, info, Knobs{})
	if err != nil {
		t.Fatal(err)
	}
	if out := ref.Outcomes; !out[0].Delivered || out[1].Delivered || out[1].Reason != "forged" {
		t.Fatalf("FPRate 0 outcomes = %+v, want the Public chunk served and the private one denied forged", out)
	}
	rep, err := RunScenario(scn, Options{SkipLive: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.Divergences {
		t.Errorf("sim diverged from oracle: %s", d)
	}

	served, caught := 0, 0
	for seed := int64(1); seed <= 32; seed++ {
		ref, err = RunReference(scn, info, Knobs{FPRate: 0.5, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		switch out := ref.Outcomes[1]; {
		case out.Delivered:
			served++
		case out.Reason == "forged":
			caught++
		default:
			t.Fatalf("seed %d: FPRate 1/2 outcome = %+v, want served or denied forged", seed, out)
		}
	}
	if served == 0 || caught == 0 {
		t.Errorf("FPRate 1/2 over 32 seeds: %d served, %d caught; want both", served, caught)
	}
}

// TestInjectedBugCaught is the harness's own acceptance test: disabling
// Protocol 1's pre-check in the sim plane must produce a divergence the
// gate reports with a replayable seed, the same seed must be clean
// under vanilla semantics, and minimization must preserve the
// divergence while only ever shrinking the scenario.
func TestInjectedBugCaught(t *testing.T) {
	bugged := Options{SimTactic: core.Config{DisablePrecheck: true}, SkipLive: true}
	var caught *Report
	var seed int64
	for s := int64(1); s <= 20 && caught == nil; s++ {
		rep, err := RunSeed(s, bugged)
		if err != nil {
			t.Fatalf("RunSeed(%d): %v", s, err)
		}
		if rep.Diverged() {
			caught, seed = rep, s
		}
	}
	if caught == nil {
		t.Fatal("pre-check disabled in the sim plane, yet 20 seeds produced no divergence")
	}
	t.Logf("seed %d caught the injected bug: %s", seed, caught.Divergences[0])

	// Replayable: the reported seed reproduces the divergence…
	again, err := RunSeed(seed, bugged)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Diverged() {
		t.Fatalf("seed %d did not reproduce the divergence", seed)
	}
	// …and is clean without the injected bug.
	clean, err := RunSeed(seed, Options{SkipLive: true})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Diverged() {
		t.Fatalf("seed %d diverges even without the bug: %v", seed, clean.Divergences)
	}

	min, minRep, err := Minimize(caught.Scenario, bugged)
	if err != nil {
		t.Fatal(err)
	}
	if !minRep.Diverged() {
		t.Fatal("minimized scenario no longer diverges")
	}
	if len(min.Requests) > len(caught.Scenario.Requests) {
		t.Fatalf("minimization grew the scenario: %d -> %d requests", len(caught.Scenario.Requests), len(min.Requests))
	}
	t.Logf("minimized %d requests to %d", len(caught.Scenario.Requests), len(min.Requests))
}

// TestInjectedBugSymmetry: detection works in both directions — a seed
// whose scenario catches a pre-check bug injected into the sim plane
// also catches the mirrored bug injected into the oracle's knobs, and
// vice versa. (The two *bugged* implementations are not required to
// agree with each other: disabling pre-checks lets expired tags reach
// PIT aggregation, whose timing-dependent outcomes the per-request
// oracle model deliberately does not chase.)
func TestInjectedBugSymmetry(t *testing.T) {
	buggedKnobs := Knobs{DisableEdgePrecheck: true, DisableContentPrecheck: true}
	caughtEither := false
	for s := int64(1); s <= 8; s++ {
		simBug, err := RunSeed(s, Options{SimTactic: core.Config{DisablePrecheck: true}, SkipLive: true})
		if err != nil {
			t.Fatalf("RunSeed(%d): %v", s, err)
		}
		oracleBug, err := RunSeed(s, Options{Knobs: buggedKnobs, SkipLive: true})
		if err != nil {
			t.Fatalf("RunSeed(%d): %v", s, err)
		}
		if simBug.Diverged() != oracleBug.Diverged() {
			t.Errorf("seed %d: asymmetric detection: bugged-sim diverged=%t, bugged-oracle diverged=%t",
				s, simBug.Diverged(), oracleBug.Diverged())
		}
		caughtEither = caughtEither || simBug.Diverged()
	}
	if !caughtEither {
		t.Error("no seed in 1..8 exercised the pre-check at all")
	}
}

// TestHarnessDeterminism: the same seed and options yield bit-identical
// scenarios and reports — the property that makes a reported seed a
// reproduction recipe.
func TestHarnessDeterminism(t *testing.T) {
	a, err := RunSeed(3, Options{SkipLive: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSeed(3, Options{SkipLive: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Scenario.String() != b.Scenario.String() {
		t.Error("GenerateScenario is not deterministic for a fixed seed")
	}
	if !reflect.DeepEqual(a.Divergences, b.Divergences) {
		t.Error("RunScenario reports differ across identical runs")
	}
}

// TestRevokedReference pins the revoked threat class end to end on the
// oracle and the sim plane: a correctly signed, unexpired tag whose ID
// is in the pushed revocation set is denied at the edge with reason
// "revoked", while its neighbour's valid tag is served — and bugging
// the oracle's revocation knob together with the plane's restores
// agreement (the mirrored-bug symmetry the harness is built on).
func TestRevokedReference(t *testing.T) {
	scn, info := handScenario(t,
		[]ContentSpec{{Provider: 0, Object: "sec", Level: 1}},
		[]TagSpec{
			{User: 0, Provider: 0, Level: 2, Kind: TagRevoked},
			{User: 1, Provider: 0, Level: 2, Kind: TagValid},
		},
		[]RequestSpec{
			{Step: 0, User: 0, Content: 0, Tag: 0},
			{Step: 1, User: 1, Content: 0, Tag: 1},
		})

	ref, err := RunReference(scn, info, Knobs{})
	if err != nil {
		t.Fatal(err)
	}
	if out := ref.Outcomes[0]; out.Delivered || out.Stage != StageEdgeInterest || out.Reason != "revoked" {
		t.Fatalf("revoked outcome = %+v, want edge-interest revoked denial", out)
	}
	if out := ref.Outcomes[1]; !out.Delivered {
		t.Fatalf("valid neighbour outcome = %+v, want delivered", out)
	}
	rep, err := RunScenario(scn, Options{SkipLive: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.Divergences {
		t.Errorf("sim diverged from oracle: %s", d)
	}

	// Mirror the bug on both sides: the revoked tag is honoured
	// everywhere, and the planes still agree.
	ref, err = RunReference(scn, info, Knobs{DisableRevocationCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if out := ref.Outcomes[0]; !out.Delivered {
		t.Fatalf("bugged-oracle revoked outcome = %+v, want delivered (expiry-only behaviour)", out)
	}
	rep, err = RunScenario(scn, Options{
		SimTactic: core.Config{DisableRevocationCheck: true},
		Knobs:     Knobs{DisableRevocationCheck: true},
		SkipLive:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.Divergences {
		t.Errorf("mirrored revocation bug still diverged: %s", d)
	}
}

// TestRoamingReference pins the roaming threat class: on a two-edge
// topology, a tag bound to the *other* edge is denied (access_path)
// unless it carries the roaming wildcard, in which case it is served —
// on the oracle and the sim plane identically.
func TestRoamingReference(t *testing.T) {
	scn := &Scenario{
		Seed:     998,
		Topo:     topology.Config{CoreRouters: 2, EdgeRouters: 2, Providers: 1, Clients: 2, AttachDegree: 2, Seed: 998},
		Steps:    2,
		Contents: []ContentSpec{{Provider: 0, Object: "sec", Level: 1}},
		Tags: []TagSpec{
			{User: 0, Provider: 0, Level: 2, Kind: TagRoaming},
			{User: 0, Provider: 0, Level: 2, Kind: TagValid},
		},
		Requests: []RequestSpec{
			{Step: 0, User: 0, Content: 0, Tag: 0},
			{Step: 1, User: 0, Content: 0, Tag: 1},
		},
	}
	info, err := buildTopo(scn)
	if err != nil {
		t.Fatal(err)
	}
	away := (info.userEdge[0] + 1) % len(info.edges)
	scn.Tags[0].HomeEdge = away
	scn.Tags[1].HomeEdge = away

	ref, err := RunReference(scn, info, Knobs{})
	if err != nil {
		t.Fatal(err)
	}
	if out := ref.Outcomes[0]; !out.Delivered {
		t.Fatalf("roaming outcome = %+v, want delivered via the wildcard", out)
	}
	if out := ref.Outcomes[1]; out.Delivered || out.Reason != "access_path" {
		t.Fatalf("wrong-edge non-roaming outcome = %+v, want access_path denial", out)
	}
	rep, err := RunScenario(scn, Options{SkipLive: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.Divergences {
		t.Errorf("sim diverged from oracle: %s", d)
	}
}

// TestInjectedRevocationBugCaught is the lifecycle tentpole's
// differential acceptance test: forgetting the revocation pre-check in
// the sim plane (core.Config.DisableRevocationCheck — exactly the bug
// of consulting only T_e) must produce a divergence with a replayable
// seed that is clean under correct semantics, and detection must be
// symmetric when the mirrored bug is injected into the oracle instead.
func TestInjectedRevocationBugCaught(t *testing.T) {
	bugged := Options{SimTactic: core.Config{DisableRevocationCheck: true}, SkipLive: true}
	var caught *Report
	var seed int64
	for s := int64(1); s <= 20 && caught == nil; s++ {
		rep, err := RunSeed(s, bugged)
		if err != nil {
			t.Fatalf("RunSeed(%d): %v", s, err)
		}
		if rep.Diverged() {
			caught, seed = rep, s
		}
	}
	if caught == nil {
		t.Fatal("revocation check disabled in the sim plane, yet 20 seeds produced no divergence")
	}
	t.Logf("seed %d caught the forgotten revocation pre-check: %s", seed, caught.Divergences[0])

	again, err := RunSeed(seed, bugged)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Diverged() {
		t.Fatalf("seed %d did not reproduce the divergence", seed)
	}
	clean, err := RunSeed(seed, Options{SkipLive: true})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Diverged() {
		t.Fatalf("seed %d diverges even without the bug: %v", seed, clean.Divergences)
	}

	// Mirrored injection: bugging the oracle's knob on the same seed
	// diverges from the correct sim plane just as the bugged sim plane
	// diverged from the correct oracle.
	mirrored, err := RunSeed(seed, Options{Knobs: Knobs{DisableRevocationCheck: true}, SkipLive: true})
	if err != nil {
		t.Fatal(err)
	}
	if !mirrored.Diverged() {
		t.Fatalf("seed %d: bugged oracle did not diverge from the correct sim plane", seed)
	}

	min, minRep, err := Minimize(caught.Scenario, bugged)
	if err != nil {
		t.Fatal(err)
	}
	if !minRep.Diverged() {
		t.Fatal("minimized scenario no longer diverges")
	}
	if len(min.Requests) > len(caught.Scenario.Requests) {
		t.Fatalf("minimization grew the scenario: %d -> %d requests", len(caught.Scenario.Requests), len(min.Requests))
	}
	t.Logf("minimized %d requests to %d", len(caught.Scenario.Requests), len(min.Requests))
}

// TestInjectedLiveBugCaught injects the pre-check bug into the live
// plane only and requires the gate to catch it — via verdicts where the
// bug flips a delivery, and via content-store end state where the
// verdict happens to survive (an expired tag denied upstream instead of
// at the edge still drags the content across the path).
func TestInjectedLiveBugCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("live plane in -short")
	}
	bugged := Options{LiveTactic: core.Config{DisablePrecheck: true}}
	for s := int64(1); s <= 6; s++ {
		rep, err := RunSeed(s, bugged)
		if err != nil {
			t.Fatalf("RunSeed(%d): %v", s, err)
		}
		if rep.Diverged() {
			t.Logf("seed %d caught the live-plane bug: %s", s, rep.Divergences[0])
			return
		}
	}
	t.Fatal("pre-check disabled in the live plane, yet 6 seeds produced no divergence")
}

// TestInjectedRevocationLiveBugCaught injects the forgotten revocation
// pre-check into the live plane only: the concurrent forwarder pipeline
// then honours a pushed-revoked tag until T_e, and the differential
// gate must report it with a replayable seed.
func TestInjectedRevocationLiveBugCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("live plane in -short")
	}
	bugged := Options{LiveTactic: core.Config{DisableRevocationCheck: true}}
	for s := int64(1); s <= 6; s++ {
		rep, err := RunSeed(s, bugged)
		if err != nil {
			t.Fatalf("RunSeed(%d): %v", s, err)
		}
		if rep.Diverged() {
			t.Logf("seed %d caught the live-plane revocation bug: %s", s, rep.Divergences[0])
			// Replayable: the same seed is clean without the bug.
			clean, err := RunSeed(s, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if clean.Diverged() {
				t.Fatalf("seed %d diverges even without the bug: %v", s, clean.Divergences)
			}
			return
		}
	}
	t.Fatal("revocation check disabled in the live plane, yet 6 seeds produced no divergence")
}
