// Package oracle is the conformance oracle for TACTIC enforcement: a
// deliberately-naive reference model of the paper's protocol state
// machine (Protocols 1-4 re-derived from the pseudocode, with exact
// validated-tag sets standing in for Bloom filters) plus a differential
// harness that replays randomized seeded scenarios against three
// independent implementations —
//
//   - the reference model itself (model.go),
//   - the discrete-event sim plane (internal/network + internal/core),
//   - a live multi-node forwarder topology over in-process pipes
//     (internal/forwarder + internal/transport),
//
// and asserts per-Interest verdict equivalence and end-state content
// store equivalence, reporting any divergence as a minimized,
// replayable seed. The repo carries two full implementations of the
// enforcement semantics; this package is what proves they still agree
// with each other — and with the paper — after every refactor.
//
// Determinism contract. Scenarios are generated so that every verdict
// is independent of scheduling races the live plane legitimately has
// (PIT aggregation timing, content-store fill order within a step):
// tag expiries sit far from decision instants except at one explicit
// boundary the harness sleeps across, and each tag appears at most once
// per step. Aggregation needs no such care: any requests may share a
// (step, name) slot, because every upstream answer for a pending name
// answers the primary's question (a live router re-sends the primary's
// Interest for an aggregate) and each requester is judged by its own tag
// when the Data arrives. See GenerateScenario.
package oracle

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/topology"
)

// TagKind classifies a scenario tag's ground truth.
type TagKind int

// Tag kinds.
const (
	// TagValid is a correctly signed, unexpired tag.
	TagValid TagKind = iota
	// TagPreExpired is correctly signed but expired before the scenario
	// starts (revocation via T_e, threat (c)).
	TagPreExpired
	// TagMidRun is correctly signed and expires at the scenario's
	// expiry boundary: valid for steps < Boundary, expired at and after
	// it.
	TagMidRun
	// TagForged carries a signature that does not verify against the
	// provider's registered key (threat (b)).
	TagForged
	// TagRevoked is correctly signed and unexpired, but its ID is in
	// the revocation set the lifecycle control plane pushed to every
	// router before the scenario starts: it must be denied at the edge
	// without waiting for T_e.
	TagRevoked
	// TagRoaming is correctly signed and carries the AccessPathAny
	// wildcard instead of an edge binding, so it stays valid when its
	// holder requests from an edge other than HomeEdge (the lifecycle
	// service's mobility grant).
	TagRoaming
	// TagFlood is a forged tag minted for the verify-flood threat: like
	// TagForged its signature does not verify, but each flood tag gets a
	// distinct Serial salted into its ClientKey so every burst Interest
	// presents a never-seen tag and forces a fresh signature check —
	// the attack the bounded verification pool exists to absorb.
	TagFlood
)

// String names the kind.
func (k TagKind) String() string {
	switch k {
	case TagValid:
		return "valid"
	case TagPreExpired:
		return "pre-expired"
	case TagMidRun:
		return "mid-run"
	case TagForged:
		return "forged"
	case TagRevoked:
		return "revoked"
	case TagRoaming:
		return "roaming"
	case TagFlood:
		return "flood"
	}
	return "unknown"
}

// TagSpec is the ground truth for one scenario tag. The differential
// planes each materialise it as a concrete signed core.Tag; the
// reference model consumes the spec directly — that asymmetry is the
// point: the oracle never runs the production crypto or Bloom filters.
type TagSpec struct {
	// User is the owning user's index (the tag's ClientKey identity).
	User int
	// Provider is the issuing provider's index.
	Provider int
	// Level is AL_u.
	Level core.AccessLevel
	// Kind is the ground-truth class.
	Kind TagKind
	// HomeEdge is the edge-router position (index into the topology's
	// edge routers) whose location the tag's access path binds to. A
	// tag whose HomeEdge differs from the requester's edge models the
	// paper's traitor scenario (threat (e)).
	HomeEdge int
	// Serial distinguishes otherwise-identical TagFlood tags: each
	// plane salts it into the tag's ClientKey, so every flood tag has a
	// distinct wire encoding (and hence a distinct Bloom-filter /
	// validated-set key). Zero for every other kind.
	Serial int
}

// ContentSpec is one published chunk.
type ContentSpec struct {
	// Provider is the publishing provider's index.
	Provider int
	// Object is the name component under the provider prefix.
	Object string
	// Level is AL_D; core.Public marks open content.
	Level core.AccessLevel
}

// RequestSpec is one scheduled Interest.
type RequestSpec struct {
	// Step is the logical time slot (0-based). The harness barriers
	// between steps, so cross-step requests never share PIT entries.
	Step int
	// User issues the request.
	User int
	// Content indexes Scenario.Contents.
	Content int
	// Tag indexes Scenario.Tags; -1 sends a tagless Interest.
	Tag int
}

// Scenario is one replayable differential test case. Everything is
// derived deterministically from Seed.
type Scenario struct {
	// Seed regenerates the scenario: GenerateScenario(Seed) reproduces
	// it exactly.
	Seed int64
	// Topo parameterises the topology (shared by all planes).
	Topo topology.Config
	// Steps is the number of logical time slots.
	Steps int
	// Boundary, when > 0, is the step at which TagMidRun tags expire.
	Boundary int
	// Contents, Tags, Requests describe the workload.
	Contents []ContentSpec
	Tags     []TagSpec
	Requests []RequestSpec
	// Flood, when non-nil, marks this as a verify-flood scenario: every
	// request in Flood.Step belongs to Flood.User and is issued on one
	// shared client connection in request order, and every plane runs
	// with the per-face verify admission budget Flood.Budget.
	Flood *FloodSpec
}

// FloodSpec parameterises a verify-flood burst (the TagFlood threat
// class): one attacker sends a back-to-back burst of never-seen forged
// tags on a single face, and the planes must agree — request by
// request — on which Interests are admitted into verification (and
// denied "forged") and which are shed with an Overload NACK.
type FloodSpec struct {
	// User is the flooding user index.
	User int
	// Step is the burst step; it contains only the flood requests.
	Step int
	// Budget is the per-face verify admission budget for every plane.
	Budget int
}

// String renders the scenario compactly for divergence reports.
func (s *Scenario) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario seed=%d topo{core=%d edge=%d prov=%d users=%d} steps=%d boundary=%d\n",
		s.Seed, s.Topo.CoreRouters, s.Topo.EdgeRouters, s.Topo.Providers,
		s.Topo.Clients+s.Topo.Attackers, s.Steps, s.Boundary)
	if s.Flood != nil {
		fmt.Fprintf(&b, "  flood user=%d step=%d budget=%d\n", s.Flood.User, s.Flood.Step, s.Flood.Budget)
	}
	for i, c := range s.Contents {
		fmt.Fprintf(&b, "  content[%d] prov%d/%s level=%d\n", i, c.Provider, c.Object, c.Level)
	}
	for i, t := range s.Tags {
		fmt.Fprintf(&b, "  tag[%d] user=%d prov=%d level=%d kind=%s homeEdge=%d serial=%d\n",
			i, t.User, t.Provider, t.Level, t.Kind, t.HomeEdge, t.Serial)
	}
	for i, r := range s.Requests {
		fmt.Fprintf(&b, "  req[%d] step=%d user=%d content=%d tag=%d\n", i, r.Step, r.User, r.Content, r.Tag)
	}
	return b.String()
}

// GenerateScenario derives a scenario deterministically from seed:
// a small randomized topology, 1-2 providers each publishing a few
// levelled contents, a population of users holding tags across the
// ground-truth classes (valid, pre-expired, mid-run expiring, forged,
// explicitly revoked, roaming, and traitor tags bound to the wrong
// edge), and a step schedule of
// requests including deliberate same-(step,name) aggregation groups.
func GenerateScenario(seed int64) (*Scenario, error) {
	rng := rand.New(rand.NewSource(seed))
	topo := topology.Config{
		CoreRouters:  3 + rng.Intn(3),
		EdgeRouters:  2 + rng.Intn(2),
		Providers:    1 + rng.Intn(2),
		Clients:      2 + rng.Intn(3),
		Attackers:    rng.Intn(3),
		AttachDegree: 2,
		Seed:         seed,
	}
	scn := &Scenario{Seed: seed, Topo: topo, Steps: 4 + rng.Intn(3)}
	info, err := buildTopo(scn)
	if err != nil {
		return nil, err
	}
	users := len(info.users)
	edges := len(info.edges)

	// Contents: 2-3 objects per provider across the access levels.
	for p := 0; p < topo.Providers; p++ {
		n := 2 + rng.Intn(2)
		for o := 0; o < n; o++ {
			scn.Contents = append(scn.Contents, ContentSpec{
				Provider: p,
				Object:   fmt.Sprintf("o%d", o),
				Level:    core.AccessLevel(rng.Intn(3)),
			})
		}
	}

	// Tags: most users hold a tag per provider; kinds follow a roulette
	// that keeps valid tags dominant so delivery paths stay exercised.
	userTag := make([][]int, users) // user -> provider -> tag index (-1 none)
	haveMidRun := false
	for u := 0; u < users; u++ {
		userTag[u] = make([]int, topo.Providers)
		for p := range userTag[u] {
			userTag[u][p] = -1
		}
	}
	for u := 0; u < users; u++ {
		for p := 0; p < topo.Providers; p++ {
			if rng.Float64() < 0.2 {
				continue // this user never registered here
			}
			t := TagSpec{User: u, Provider: p, Level: core.AccessLevel(rng.Intn(3)), HomeEdge: info.userEdge[u]}
			switch roll := rng.Float64(); {
			case roll < 0.45:
				t.Kind = TagValid
			case roll < 0.58:
				t.Kind = TagForged
			case roll < 0.66:
				t.Kind = TagPreExpired
			case roll < 0.74:
				t.Kind = TagMidRun
				haveMidRun = true
			case roll < 0.82:
				t.Kind = TagRevoked
			case roll < 0.90:
				// Roaming tag: bound to no edge (AccessPathAny), and — when
				// the topology allows — held by a user attached elsewhere,
				// so only the wildcard lets it through.
				t.Kind = TagRoaming
				if edges > 1 {
					t.HomeEdge = (info.userEdge[u] + 1 + rng.Intn(edges-1)) % edges
				}
			default:
				// Traitor tag: valid signature, bound to another edge's
				// location. Degenerates to TagValid on 1-edge topologies.
				t.Kind = TagValid
				if edges > 1 {
					t.HomeEdge = (info.userEdge[u] + 1 + rng.Intn(edges-1)) % edges
				}
			}
			userTag[u][p] = len(scn.Tags)
			scn.Tags = append(scn.Tags, t)
		}
	}
	if haveMidRun {
		scn.Boundary = scn.Steps / 2
		if scn.Boundary < 1 {
			scn.Boundary = 1
		}
	}

	// place admits a request unless its tag is already used in its step
	// (the one constraint the generator keeps), recording it.
	tagStep := make(map[[2]int]bool)
	place := func(r RequestSpec) bool {
		if r.Tag >= 0 {
			ts := [2]int{r.Tag, r.Step}
			if tagStep[ts] {
				return false
			}
			tagStep[ts] = true
		}
		scn.Requests = append(scn.Requests, r)
		return true
	}
	contentsOf := func(p int) []int {
		var out []int
		for i, c := range scn.Contents {
			if c.Provider == p {
				out = append(out, i)
			}
		}
		return out
	}

	// Every mid-run tag is exercised on both sides of the boundary —
	// that is the revocation transition the oracle exists to check.
	for ti, t := range scn.Tags {
		if t.Kind != TagMidRun {
			continue
		}
		cands := contentsOf(t.Provider)
		for attempt := 0; attempt < 8; attempt++ {
			r := RequestSpec{Step: rng.Intn(scn.Boundary), User: t.User, Content: cands[rng.Intn(len(cands))], Tag: ti}
			if place(r) {
				break
			}
		}
		for attempt := 0; attempt < 8; attempt++ {
			r := RequestSpec{Step: scn.Boundary + rng.Intn(scn.Steps-scn.Boundary), User: t.User, Content: cands[rng.Intn(len(cands))], Tag: ti}
			if place(r) {
				break
			}
		}
	}

	// Every revoked and roaming tag is exercised at least once: revoked
	// tags pin the explicit-revocation denial (the lifecycle tentpole's
	// differential acceptance), roaming tags pin the wildcard delivery.
	for ti, t := range scn.Tags {
		if t.Kind != TagRevoked && t.Kind != TagRoaming {
			continue
		}
		cands := contentsOf(t.Provider)
		for attempt := 0; attempt < 8; attempt++ {
			r := RequestSpec{Step: rng.Intn(scn.Steps), User: t.User, Content: cands[rng.Intn(len(cands))], Tag: ti}
			if place(r) {
				break
			}
		}
	}

	// Deliberate aggregation groups: 1-2 same-(step,name) bursts of 2-3
	// users, exercising PIT aggregation and the NACK-alongside-Data
	// delivery rules.
	for g := 0; g < 1+rng.Intn(2); g++ {
		ci := rng.Intn(len(scn.Contents))
		step := rng.Intn(scn.Steps)
		members := 2 + rng.Intn(2)
		for m := 0; m < members; m++ {
			u := rng.Intn(users)
			tag := userTag[u][scn.Contents[ci].Provider]
			place(RequestSpec{Step: step, User: u, Content: ci, Tag: tag})
		}
	}

	// The randomized bulk of the schedule.
	target := 15 + rng.Intn(15)
	for attempt := 0; attempt < target*4 && len(scn.Requests) < target; attempt++ {
		u := rng.Intn(users)
		ci := rng.Intn(len(scn.Contents))
		prov := scn.Contents[ci].Provider
		tag := userTag[u][prov]
		switch roll := rng.Float64(); {
		case roll < 0.15:
			tag = -1 // tagless
		case roll < 0.25 && len(scn.Tags) > 0:
			// Wrong-provider or borrowed tag: any tag in the scenario.
			tag = rng.Intn(len(scn.Tags))
		}
		place(RequestSpec{Step: rng.Intn(scn.Steps), User: u, Content: ci, Tag: tag})
	}

	// Stable step order; within a step, placement order is preserved so
	// every plane fires aggregation-group primaries identically.
	sort.SliceStable(scn.Requests, func(i, j int) bool {
		return scn.Requests[i].Step < scn.Requests[j].Step
	})
	return scn, nil
}

// floodBudget is the per-face verify admission budget flood scenarios
// run with. It is deliberately tiny: the burst must overflow it by a
// margin while the victims' per-step verification demand (at most one
// per victim per edge per step) stays strictly below it, so admission
// never fires outside the burst.
const floodBudget = 4

// GenerateFloodScenario derives a verify-flood scenario from seed:
// victims warm their valid tags into the edge filters (step 0), one
// attacker bursts a budget-overflowing run of distinct TagFlood tags on
// a single connection (step 1), and the victims re-request under Bloom
// filter hits (step 2). Every plane must agree which burst Interests
// were admitted to verification (denied "forged") and which were shed
// ("overload") — in request order, that is the first Budget and the
// rest respectively.
func GenerateFloodScenario(seed int64) (*Scenario, error) {
	rng := rand.New(rand.NewSource(seed ^ 0xf100d))
	topo := topology.Config{
		CoreRouters:  2 + rng.Intn(2),
		EdgeRouters:  2,
		Providers:    1,
		Clients:      2,
		Attackers:    1,
		AttachDegree: 2,
		Seed:         seed,
	}
	scn := &Scenario{Seed: seed, Topo: topo, Steps: 3}
	info, err := buildTopo(scn)
	if err != nil {
		return nil, err
	}
	attacker := len(info.users) - 1 // users lists clients first, then attackers
	scn.Flood = &FloodSpec{User: attacker, Step: 1, Budget: floodBudget}

	scn.Contents = []ContentSpec{{Provider: 0, Object: "o0", Level: core.AccessLevel(rng.Intn(3))}}

	// Victims hold top-level valid tags bound to their own edges.
	for u := 0; u < topo.Clients; u++ {
		scn.Tags = append(scn.Tags, TagSpec{
			User: u, Provider: 0, Level: core.AccessLevel(2), Kind: TagValid, HomeEdge: info.userEdge[u],
		})
	}
	// The burst overflows the budget by 4-7 distinct flood tags, so both
	// verdict classes are always present.
	burst := floodBudget + 4 + rng.Intn(4)
	floodBase := len(scn.Tags)
	for i := 0; i < burst; i++ {
		scn.Tags = append(scn.Tags, TagSpec{
			User: attacker, Provider: 0, Level: core.AccessLevel(2), Kind: TagFlood,
			HomeEdge: info.userEdge[attacker], Serial: i,
		})
	}

	for u := 0; u < topo.Clients; u++ {
		scn.Requests = append(scn.Requests, RequestSpec{Step: 0, User: u, Content: 0, Tag: u})
	}
	for i := 0; i < burst; i++ {
		scn.Requests = append(scn.Requests, RequestSpec{Step: 1, User: attacker, Content: 0, Tag: floodBase + i})
	}
	for u := 0; u < topo.Clients; u++ {
		scn.Requests = append(scn.Requests, RequestSpec{Step: 2, User: u, Content: 0, Tag: u})
	}
	return scn, nil
}
