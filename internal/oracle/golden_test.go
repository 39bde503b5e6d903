package oracle

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/topology"
)

// This file replays the committed golden verdict matrix
// (internal/enforce/testdata/verdict_matrix.json) end to end: each
// interest-path row becomes one request of a hand-built scenario, the
// reference model's per-request outcome is asserted against the golden
// cell, and RunScenario then pins the sim and live planes to the same
// verdicts (zero divergences). Together with internal/enforce's
// engine-level replay, the matrix is enforced on all three harnesses.

type goldenExpect struct {
	Delivered bool   `json:"delivered"`
	Stage     string `json:"stage"`
	Reason    string `json:"reason"`
}

type goldenCase struct {
	Name   string       `json:"name"`
	Threat string       `json:"threat"`
	Path   string       `json:"path"`
	Config string       `json:"config"`
	Tactic goldenExpect `json:"tactic"`
	IBAC   goldenExpect `json:"ibac"`
}

func (c goldenCase) expect(s core.Scheme) goldenExpect {
	if s == core.SchemeIBAC {
		return c.IBAC
	}
	return c.Tactic
}

func loadGoldenMatrix(t testing.TB) []goldenCase {
	t.Helper()
	raw, err := os.ReadFile("../enforce/testdata/verdict_matrix.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Cases []goldenCase `json:"cases"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Cases) == 0 {
		t.Fatal("empty golden matrix")
	}
	return doc.Cases
}

// goldenScenario lays the matrix's end-to-end rows out as one scenario:
// a 2-edge topology, one client, and one request per row — each on its
// own step so verdicts cannot interact through PIT aggregation.
func goldenScenario(t testing.TB, cases []goldenCase) (*Scenario, []goldenCase) {
	t.Helper()
	scn := &Scenario{
		Seed: 424242,
		Topo: topology.Config{
			CoreRouters: 2, EdgeRouters: 2, Providers: 2,
			Clients: 1, Attackers: 0, AttachDegree: 2, Seed: 424242,
		},
	}
	info, err := buildTopo(scn)
	if err != nil {
		t.Fatal(err)
	}
	home := info.userEdge[0]
	away := (home + 1) % len(info.edges)
	scn.Contents = []ContentSpec{
		{Provider: 0, Object: "o0", Level: core.AccessLevel(2)},
		{Provider: 0, Object: "opub", Level: core.Public},
	}

	var picked []goldenCase
	for _, tc := range cases {
		if tc.Path != "interest" || tc.Threat == "flood-shed" {
			continue
		}
		// Distinct serials keep same-shaped rows (e.g. valid vs revoked)
		// from materializing to the same tag identity.
		spec := TagSpec{User: 0, Provider: 0, Level: core.AccessLevel(2), Kind: TagValid, HomeEdge: home, Serial: len(picked) + 1}
		content, tagged := 0, true
		switch tc.Threat {
		case "valid":
		case "forged":
			spec.Kind = TagForged
		case "expired":
			spec.Kind = TagPreExpired
		case "wrong-level":
			spec.Level = core.AccessLevel(1)
		case "wrong-provider":
			spec.Provider = 1
		case "borrowed":
			spec.HomeEdge = away
		case "revoked":
			spec.Kind = TagRevoked
		case "roaming":
			spec.Kind = TagRoaming
			spec.HomeEdge = away
		case "tagless-private":
			tagged = false
		case "tagless-public":
			tagged, content = false, 1
		case "forged-public":
			spec.Kind, content = TagForged, 1
		default:
			t.Fatalf("golden case %s: no scenario mapping for threat %q", tc.Name, tc.Threat)
		}
		step := len(picked)
		tag := -1
		if tagged {
			tag = len(scn.Tags)
			scn.Tags = append(scn.Tags, spec)
		}
		scn.Requests = append(scn.Requests, RequestSpec{Step: step, User: 0, Content: content, Tag: tag})
		picked = append(picked, tc)
	}
	scn.Steps = len(picked)
	return scn, picked
}

func assertGoldenOutcome(t *testing.T, name string, out RefOutcome, want goldenExpect) {
	t.Helper()
	if out.Delivered != want.Delivered {
		t.Errorf("%s: delivered=%t, want %t", name, out.Delivered, want.Delivered)
		return
	}
	if want.Delivered {
		if out.Stage != StageDelivered {
			t.Errorf("%s: stage=%s, want delivered", name, out.Stage)
		}
		return
	}
	if out.Stage.String() != want.Stage || out.Reason != want.Reason {
		t.Errorf("%s: denied at (%s, %s), want (%s, %s)",
			name, out.Stage, out.Reason, want.Stage, want.Reason)
	}
}

// TestGoldenMatrixEndToEnd checks the matrix's interest rows against
// the reference model and then replays the same scenario through the
// sim and live planes, requiring full agreement.
func TestGoldenMatrixEndToEnd(t *testing.T) {
	cases := loadGoldenMatrix(t)
	for _, scheme := range []core.Scheme{core.SchemeTACTIC, core.SchemeIBAC} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			scn, picked := goldenScenario(t, cases)
			info, err := buildTopo(scn)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := RunReference(scn, info, Knobs{Scheme: scheme})
			if err != nil {
				t.Fatal(err)
			}
			for i, tc := range picked {
				assertGoldenOutcome(t, tc.Name, ref.Outcomes[i], tc.expect(scheme))
			}
			rep, err := RunScenario(scn, Options{Scheme: scheme})
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range rep.Divergences {
				t.Errorf("plane divergence: %s", d)
			}
		})
	}
}

// TestGoldenFloodShedEndToEnd covers the matrix's flood-shed row on the
// planes: a budget-overflowing verify burst must shed exactly the
// over-budget tail with the golden (stage, reason) in the reference
// model, and both planes must agree.
func TestGoldenFloodShedEndToEnd(t *testing.T) {
	cases := loadGoldenMatrix(t)
	var row *goldenCase
	for i := range cases {
		if cases[i].Threat == "flood-shed" && cases[i].Path == "interest" {
			row = &cases[i]
			break
		}
	}
	if row == nil {
		t.Fatal("matrix has no interest/flood-shed row")
	}
	for _, scheme := range []core.Scheme{core.SchemeTACTIC, core.SchemeIBAC} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			scn, err := GenerateFloodScenario(7)
			if err != nil {
				t.Fatal(err)
			}
			info, err := buildTopo(scn)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := RunReference(scn, info, Knobs{
				Scheme: scheme, EdgeValidateOnMiss: true, AdmissionBudget: scn.Flood.Budget,
			})
			if err != nil {
				t.Fatal(err)
			}
			want := row.expect(scheme)
			shed := 0
			for i, r := range scn.Requests {
				if r.Step != scn.Flood.Step {
					continue
				}
				out := ref.Outcomes[i]
				if out.Reason != "overload" {
					continue
				}
				shed++
				assertGoldenOutcome(t, fmt.Sprintf("%s[req %d]", row.Name, i), out, want)
			}
			burst := 0
			for _, r := range scn.Requests {
				if r.Step == scn.Flood.Step {
					burst++
				}
			}
			if wantShed := burst - scn.Flood.Budget; shed != wantShed {
				t.Errorf("shed %d of %d burst requests, want %d", shed, burst, wantShed)
			}
			rep, err := RunScenario(scn, Options{Scheme: scheme})
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range rep.Divergences {
				t.Errorf("plane divergence: %s", d)
			}
		})
	}
}
