package enforce

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/bloom"
	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/pki"
)

// The golden verdict matrix (testdata/verdict_matrix.json) pins the
// engine's threat-class x protocol-path behaviour for both schemes.
// The same file is replayed end to end by internal/oracle's golden test
// (reference model + sim plane + live forwarder), so a semantics change
// in either backend has to touch the one committed artifact.

// GoldenExpect is one expected final verdict cell.
type GoldenExpect struct {
	Delivered bool   `json:"delivered"`
	Stage     string `json:"stage"`
	Reason    string `json:"reason"`
}

// GoldenCase is one threat x path row of the matrix.
type GoldenCase struct {
	Name   string       `json:"name"`
	Threat string       `json:"threat"`
	Path   string       `json:"path"`
	Config string       `json:"config"`
	Tactic GoldenExpect `json:"tactic"`
	IBAC   GoldenExpect `json:"ibac"`
}

// Expect selects the scheme's expectation cell.
func (c GoldenCase) Expect(s core.Scheme) GoldenExpect {
	if s == core.SchemeIBAC {
		return c.IBAC
	}
	return c.Tactic
}

// LoadGoldenMatrix reads and decodes the committed matrix from path.
func LoadGoldenMatrix(t testing.TB, path string) []GoldenCase {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Cases []GoldenCase `json:"cases"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("decode %s: %v", path, err)
	}
	if len(doc.Cases) == 0 {
		t.Fatalf("empty golden matrix %s", path)
	}
	return doc.Cases
}

// goldenHarness is the two-router fixture one case replays against:
// fresh state per case so no Bloom learning or revocation leaks across
// rows.
type goldenHarness struct {
	edge, core  *Router
	prov, prov2 *pki.FastKeyPair
	meta        core.ContentMeta // private content, level 2, prov0
	metaPublic  core.ContentMeta
	homeAP      core.AccessPath
	now         time.Time
}

func newGoldenHarness(t testing.TB, scheme core.Scheme, paper bool) *goldenHarness {
	t.Helper()
	h := &goldenHarness{
		homeAP: core.AccessPathOf("edge-0"),
		now:    testTime(10),
	}
	h.prov = newTestSigner(t, 1, "/prov0/KEY/1")
	h.prov2 = newTestSigner(t, 2, "/prov1/KEY/1")
	reg := newTestRegistry(t, h.prov, h.prov2)
	cfg := core.Config{Scheme: scheme, PaperAggregates: paper}
	mk := func(id string, seed int64) *Router {
		bf, err := bloom.NewPaper(500, 1e-4)
		if err != nil {
			t.Fatal(err)
		}
		return NewRouter(id, bf, core.NewTagValidator(reg), rand.New(rand.NewSource(seed)), cfg)
	}
	h.edge = mk("edge-0", 11)
	h.core = mk("core-0", 12)
	h.meta = core.ContentMeta{Name: testContentName, Level: 2, ProviderKey: h.prov.Locator()}
	h.metaPublic = core.ContentMeta{Name: names.MustParse("/prov0/pub/chunk0"), Level: core.Public, ProviderKey: h.prov.Locator()}
	return h
}

// tagFor builds the case's tag (nil for tagless threats) and applies
// any side state (revocation pushes). The returned meta is the content
// the request targets.
func (h *goldenHarness) tagFor(t testing.TB, threat string) (*core.Tag, core.ContentMeta) {
	t.Helper()
	issue := func(signer pki.Signer, level core.AccessLevel, ap core.AccessPath, expiry time.Time) *core.Tag {
		tag, err := core.IssueTag(signer, names.MustParse("/u/alice/KEY/1"), level, ap, expiry)
		if err != nil {
			t.Fatal(err)
		}
		return tag
	}
	valid := func() *core.Tag { return issue(h.prov, 2, h.homeAP, testTime(1000)) }
	switch threat {
	case "valid":
		return valid(), h.meta
	case "forged":
		tag := valid()
		tag.Signature = append([]byte(nil), tag.Signature...)
		tag.Signature[0] ^= 0xff
		return tag, h.meta
	case "expired":
		return issue(h.prov, 2, h.homeAP, testTime(5)), h.meta
	case "wrong-level":
		return issue(h.prov, 1, h.homeAP, testTime(1000)), h.meta
	case "wrong-provider":
		return issue(h.prov2, 2, h.homeAP, testTime(1000)), h.meta
	case "borrowed":
		return issue(h.prov, 2, core.AccessPathOf("edge-1"), testTime(1000)), h.meta
	case "revoked":
		tag := valid()
		for _, r := range []*Router{h.edge, h.core} {
			if !r.ApplyRevocation(1, []core.TagID{tag.ID()}) {
				t.Fatal("revocation push rejected")
			}
		}
		return tag, h.meta
	case "roaming":
		return issue(h.prov, 2, core.AccessPathAny, testTime(1000)), h.meta
	case "tagless-private":
		return nil, h.meta
	case "tagless-public":
		return nil, h.metaPublic
	case "forged-public":
		tag, _ := h.tagFor(t, "forged")
		return tag, h.metaPublic
	default:
		t.Fatalf("unknown threat %q", threat)
		return nil, h.meta
	}
}

// replay runs one case through the protocol path it names and returns
// the final verdict observables (delivered, stage, reason) in the
// matrix's vocabulary.
func (h *goldenHarness) replay(t testing.TB, tc GoldenCase) (bool, string, string) {
	t.Helper()
	if tc.Threat == "flood-shed" {
		// Admission shedding is verify-pool plumbing, not a tag property:
		// the engine's part is the minted deny verdict. The oracle golden
		// test covers the planes' budget behaviour end to end.
		v := Shed(StageEdgeInterest)
		return !v.Denied(), v.Stage.String(), v.ReasonLabel()
	}
	tag, meta := h.tagFor(t, tc.Threat)
	finish := func(v Verdict) (bool, string, string) {
		if v.Denied() {
			return false, v.Stage.String(), v.ReasonLabel()
		}
		return true, "", ""
	}
	switch tc.Path {
	case "interest":
		ev := h.edge.EdgeOnInterest(tag, h.homeAP, meta.Name, h.now)
		if ev.Denied() {
			return finish(ev)
		}
		return finish(h.core.ContentOnInterest(tag, meta, ev.Flag, h.now))
	case "content":
		return finish(h.core.ContentOnInterest(tag, meta, 0, h.now))
	case "aggregate":
		// The record aggregated behind an authorized primary whose content
		// arrived un-NACKed, at an edge and at an intermediate router.
		arrived := ArrivedData{Content: &core.Content{Meta: meta}}
		record := func(v RecordVerdict) (bool, string, string) {
			if v.Deliver == DeliverContent {
				return true, "", ""
			}
			return false, v.Stage.String(), core.ReasonLabel(v.Reason)
		}
		ed, es, er := record(h.edge.OnDataRecord(true, false, tag, 0, arrived, h.now))
		cd, cs, cr := record(h.core.OnDataRecord(false, false, tag, 0, arrived, h.now))
		if ed != cd || es != cs || er != cr {
			t.Fatalf("edge/intermediate aggregate verdicts disagree: edge=(%t,%s,%s) core=(%t,%s,%s)",
				ed, es, er, cd, cs, cr)
		}
		return ed, es, er
	default:
		t.Fatalf("unknown path %q", tc.Path)
		return false, "", ""
	}
}

// TestGoldenVerdictMatrix replays every matrix row against the Router
// pipeline for both schemes — the engine-level harness of the three
// (engine, sim plane, live plane) the matrix pins.
func TestGoldenVerdictMatrix(t *testing.T) {
	cases := LoadGoldenMatrix(t, "testdata/verdict_matrix.json")
	for _, scheme := range []core.Scheme{core.SchemeTACTIC, core.SchemeIBAC} {
		for _, tc := range cases {
			tc := tc
			t.Run(fmt.Sprintf("%s/%s", scheme, tc.Name), func(t *testing.T) {
				h := newGoldenHarness(t, scheme, tc.Config == "paper-aggregates")
				delivered, stage, reason := h.replay(t, tc)
				want := tc.Expect(scheme)
				if delivered != want.Delivered || stage != want.Stage || reason != want.Reason {
					t.Errorf("got (delivered=%t stage=%q reason=%q), want (delivered=%t stage=%q reason=%q)",
						delivered, stage, reason, want.Delivered, want.Stage, want.Reason)
				}
			})
		}
	}
}

// TestGoldenMatrixCoversThreatClasses guards the matrix file itself:
// every threat class the issue names must appear, on every protocol
// path where it is expressible.
func TestGoldenMatrixCoversThreatClasses(t *testing.T) {
	cases := LoadGoldenMatrix(t, "testdata/verdict_matrix.json")
	seen := map[string]map[string]bool{}
	for _, tc := range cases {
		if seen[tc.Threat] == nil {
			seen[tc.Threat] = map[string]bool{}
		}
		seen[tc.Threat][tc.Path] = true
	}
	for _, threat := range []string{"valid", "forged", "expired", "wrong-level", "wrong-provider", "borrowed", "revoked", "roaming", "flood-shed", "tagless-private", "tagless-public", "forged-public"} {
		if len(seen[threat]) == 0 {
			t.Errorf("threat class %q missing from matrix", threat)
		}
	}
	for _, threat := range []string{"valid", "forged", "expired", "wrong-level", "wrong-provider", "borrowed", "revoked", "roaming", "forged-public"} {
		for _, path := range []string{"interest", "content", "aggregate"} {
			if !seen[threat][path] {
				t.Errorf("threat %q missing path %q", threat, path)
			}
		}
	}
}
