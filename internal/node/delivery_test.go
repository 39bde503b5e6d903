package node

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/bloom"
	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/enforce"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
)

// deliveryWant is what one requester of testdata/delivery.json receives.
type deliveryWant struct {
	Content       bool    `json:"content"`
	Nack          bool    `json:"nack"`
	Reason        string  `json:"reason"`
	Verifications *uint64 `json:"verifications"`
	Insertions    *uint64 `json:"insertions"`
}

// deliveryCase is one row of testdata/delivery.json.
type deliveryCase struct {
	Name  string           `json:"name"`
	Role  string           `json:"role"`
	Path  string           `json:"path"`
	Tag   string           `json:"tag"`
	Level core.AccessLevel `json:"level"`
	Want  deliveryWant     `json:"want"`
	IBAC  *deliveryWant    `json:"ibac"`
}

// deliveryTag issues the row's tag, bound to the edge's access path.
func (e *env) deliveryTag(t *testing.T, kind string) *core.Tag {
	t.Helper()
	signer, level := e.prov, core.AccessLevel(4)
	switch kind {
	case "none":
		return nil
	case "level1":
		level = 1
	case "forged4":
		signer = e.rogue
	}
	tag, err := core.IssueTag(signer, names.MustParse("/users/"+kind+"/KEY/1"), level, apHome, now.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	return tag
}

// TestDeliveryTable: what a requester receives is one rule, whichever
// path its Interest took — a content-store hit, the primary of a PIT
// entry or an aggregate behind one — under both schemes: an edge sends a
// denied client a bare NACK, a core sends the content alongside the NACK
// (the paper's §5.B trade-off), and Public content goes to everyone
// without a checkpoint, teaching the node nothing.
func TestDeliveryTable(t *testing.T) {
	raw, err := os.ReadFile("testdata/delivery.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Cases []deliveryCase `json:"cases"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.Cases) == 0 {
		t.Fatalf("delivery.json: %d cases, %v", len(doc.Cases), err)
	}
	forEachScheme(t, func(t *testing.T, scheme core.Scheme) {
		for _, tc := range doc.Cases {
			t.Run(tc.Name, func(t *testing.T) {
				want := tc.Want
				if scheme == core.SchemeIBAC && tc.IBAC != nil {
					want = *tc.IBAC
				}
				role, checks := RoleEdge, Protocol2|Protocol3
				if tc.Role == "core" {
					role, checks = RoleCore, Protocol3
				}
				e := newEnvCfg(t, role, core.Config{Scheme: scheme})
				content := e.content(private, tc.Level)
				tag := e.deliveryTag(t, tc.Tag)
				// The content router upstream answers a forwarded Interest.
				bf, err := bloom.NewPaper(500, 1e-4)
				if err != nil {
					t.Fatal(err)
				}
				up := enforce.NewRouter("core-up", bf, core.NewTagValidator(e.reg), rand.New(rand.NewSource(4)), core.Config{Scheme: scheme})
				answer := func(i *ndn.Interest) *ndn.Data {
					v := up.ContentOnInterest(i.Tag, content.Meta, i.Flag, now)
					return &ndn.Data{Name: private, Content: content, Tag: i.Tag, Flag: v.Flag, Nack: v.Denied(), NackReason: v.Reason}
				}
				ops := func() (uint64, uint64) {
					return e.tactic.Validator().Verifications(), e.tactic.Bloom().Stats().Insertions
				}
				i := &ndn.Interest{Name: private, Kind: ndn.KindContent, Nonce: 2, Tag: tag, AccessPath: apHome}
				var got Answer
				var verifs0, ins0 uint64
				switch tc.Path {
				case "cs_hit":
					e.cs.Insert(content)
					verifs0, ins0 = ops()
					st := e.interest(i, 2, checks)
					if st.Action != Reply {
						t.Fatalf("content-store hit: %+v, want Reply", st)
					}
					got = st.Reply
				case "primary":
					verifs0, ins0 = ops()
					st := e.interest(i, 2, checks)
					got = st.Reply
					if st.Action != Reply {
						if st.Action != Forward {
							t.Fatalf("primary: %+v, want Forward or Reply", st)
						}
						d := answer(i)
						recs, _ := e.OnData(d, upFace, true, nil)
						got = e.OnRecord(d, recs[0], true, now).Answer
					}
				case "aggregate":
					p := &ndn.Interest{Name: private, Kind: ndn.KindContent, Nonce: 1, Tag: e.deliveryTag(t, "level4"), AccessPath: apHome}
					if st := e.interest(p, 1, checks); st.Action != Forward {
						t.Fatalf("level-4 primary: %+v, want Forward", st)
					}
					verifs0, ins0 = ops()
					st := e.interest(i, 2, checks)
					got = st.Reply
					if st.Action != Reply {
						if st.Action != Aggregate {
							t.Fatalf("aggregate: %+v, want Aggregate or Reply", st)
						}
						d := answer(p)
						recs, _ := e.OnData(d, upFace, true, nil)
						if len(recs) != 2 {
							t.Fatalf("%d records, want the primary and the aggregate", len(recs))
						}
						v, n := ops()
						if primary := e.OnRecord(d, recs[0], true, now); primary.Answer.Content == nil || primary.Answer.Nack {
							t.Fatalf("level-4 primary: %+v, want the content", primary)
						}
						v1, n1 := ops()
						verifs0, ins0 = verifs0+v1-v, ins0+n1-n
						got = e.OnRecord(d, recs[1], false, now).Answer
					}
				default:
					t.Fatalf("unknown path %q", tc.Path)
				}
				verifs, ins := ops()
				if (got.Content != nil) != want.Content || got.Nack != want.Nack || core.ReasonLabel(got.Reason) != want.Reason {
					t.Errorf("answer: content %t, nack %t, reason %q; want content %t, nack %t, reason %q",
						got.Content != nil, got.Nack, core.ReasonLabel(got.Reason), want.Content, want.Nack, want.Reason)
				}
				if want.Verifications != nil && verifs-verifs0 != *want.Verifications {
					t.Errorf("%d verifications, want %d", verifs-verifs0, *want.Verifications)
				}
				if want.Insertions != nil && ins-ins0 != *want.Insertions {
					t.Errorf("%d Bloom-filter insertions, want %d", ins-ins0, *want.Insertions)
				}
			})
		}
	})
}
