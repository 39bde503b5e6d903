package enforce_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/bloom"
	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/enforce"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/node"
	"github.com/tactic-icn/tactic/internal/pki"
)

// TestVerificationExchangePinned pins every verdict the verification
// exchange can produce, driven the way the planes drive it: the Router's
// public checkpoints, a parked request completed with VerifyMiss on the
// node.Pending's input (after a revocation push, for the revoked tag),
// the VerifyShared follower of that leader, and aggregated PIT records
// through OnDataRecord. Each row holds the full verdict — F on deny paths
// included — and the insertions into the validation cache after it.
func TestVerificationExchangePinned(t *testing.T) {
	type row struct {
		scheme     core.Scheme
		checkpoint string // edge-miss, content-F0, content-F1, edge-agg, agg-F0, agg-F1
		tag        string // valid, forged, revoked
		want       string
		follower   string // VerifyShared after the leader; "" for no follower
	}
	T, I := core.SchemeTACTIC, core.SchemeIBAC
	rows := []row{
		{T, "edge-miss", "valid", "deliver edge-interest \"\" F=4.89e-18 verified bf=1", "deliver edge-interest \"\" F=4.89e-18 bfhit bf=1"},
		{T, "edge-miss", "forged", "deny edge-interest \"forged\" F=0 verified bf=0", "deny edge-interest \"forged\" F=0 verified bf=0"},
		{T, "edge-miss", "revoked", "deny edge-interest \"revoked\" F=0 bf=0", ""},
		{T, "content-F0", "valid", "deliver content \"\" F=0 verified bf=1", "deliver content \"\" F=0 bfhit bf=1"},
		{T, "content-F0", "forged", "deny content \"forged\" F=0 verified bf=0", "deny content \"forged\" F=0 verified bf=0"},
		{T, "content-F0", "revoked", "deny content \"revoked\" F=0 bf=0", ""},
		{T, "content-F1", "valid", "deliver content \"\" F=1 verified bf=0", "deliver content \"\" F=1 verified bf=0"},
		{T, "content-F1", "forged", "deny content \"forged\" F=1 verified bf=0", "deny content \"forged\" F=1 verified bf=0"},
		{T, "content-F1", "revoked", "deny content \"revoked\" F=1 bf=0", ""},
		{T, "edge-agg", "valid", "content aggregate \"\" F=0.5 bf=1", ""},
		{T, "edge-agg", "forged", "nothing aggregate \"forged\" F=0 bf=0", ""},
		{T, "edge-agg", "revoked", "nothing aggregate \"revoked\" F=0 bf=0", ""},
		{T, "agg-F0", "valid", "content aggregate \"\" F=0 bf=1", ""},
		{T, "agg-F0", "forged", "content+nack aggregate \"forged\" F=0 minted bf=0", ""},
		{T, "agg-F0", "revoked", "content+nack aggregate \"revoked\" F=0 minted bf=0", ""},
		{T, "agg-F1", "valid", "content aggregate \"\" F=1 bf=1", ""},
		{T, "agg-F1", "forged", "content+nack aggregate \"forged\" F=1 minted bf=0", ""},
		{T, "agg-F1", "revoked", "content+nack aggregate \"revoked\" F=1 minted bf=0", ""},

		{I, "edge-miss", "valid", "deliver edge-interest \"\" F=0 verified bf=1", "deliver edge-interest \"\" F=0 bfhit bf=1"},
		{I, "edge-miss", "forged", "deny edge-interest \"forged\" F=0 verified bf=0", "deny edge-interest \"forged\" F=0 verified bf=0"},
		{I, "edge-miss", "revoked", "deny edge-interest \"revoked\" F=0 bf=0", ""},
		{I, "content-F0", "valid", "deliver content \"\" F=0 verified bf=1", "deliver content \"\" F=0 bfhit bf=1"},
		{I, "content-F0", "forged", "deny content \"forged\" F=0 verified bf=0", "deny content \"forged\" F=0 verified bf=0"},
		{I, "content-F0", "revoked", "deny content \"revoked\" F=0 bf=0", ""},
		{I, "content-F1", "valid", "deliver content \"\" F=0 verified bf=1", "deliver content \"\" F=0 bfhit bf=1"},
		{I, "content-F1", "forged", "deny content \"forged\" F=0 verified bf=0", "deny content \"forged\" F=0 verified bf=0"},
		{I, "content-F1", "revoked", "deny content \"revoked\" F=0 bf=0", ""},
		{I, "edge-agg", "valid", "content aggregate \"\" F=0.5 bf=1", ""},
		{I, "edge-agg", "forged", "nothing aggregate \"forged\" F=0 bf=0", ""},
		{I, "edge-agg", "revoked", "nothing aggregate \"revoked\" F=0 bf=0", ""},
		{I, "agg-F0", "valid", "content aggregate \"\" F=0 bf=1", ""},
		{I, "agg-F0", "forged", "content+nack aggregate \"forged\" F=0 minted bf=0", ""},
		{I, "agg-F0", "revoked", "content+nack aggregate \"revoked\" F=0 minted bf=0", ""},
		{I, "agg-F1", "valid", "content aggregate \"\" F=0 bf=1", ""},
		{I, "agg-F1", "forged", "content+nack aggregate \"forged\" F=0 minted bf=0", ""},
		{I, "agg-F1", "revoked", "content+nack aggregate \"revoked\" F=0 minted bf=0", ""},
	}
	for _, tc := range rows {
		t.Run(tc.scheme.String()+"/"+tc.checkpoint+"/"+tc.tag, func(t *testing.T) {
			p := newPinFixture(t, tc.scheme, tc.tag)
			got, follower := p.run(t, tc.checkpoint)
			if got != tc.want {
				t.Errorf("verdict:\n got  %s\n want %s", got, tc.want)
			}
			if follower != tc.follower {
				t.Errorf("follower:\n got  %s\n want %s", follower, tc.follower)
			}
		})
	}
}

type pinFixture struct {
	r       *enforce.Router
	tag     *core.Tag
	revoke  bool // push the tag's revocation between the fast call and VerifyMiss
	content *core.Content
	ap      core.AccessPath
	now     time.Time
}

func newPinFixture(t *testing.T, scheme core.Scheme, tagCase string) *pinFixture {
	t.Helper()
	prov, err := pki.GenerateFast(rand.New(rand.NewSource(1)), names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	reg := pki.NewRegistry()
	if err := reg.Register(prov.Locator(), prov.Public()); err != nil {
		t.Fatal(err)
	}
	bf, err := bloom.NewPaper(500, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Scheme: scheme, EdgeValidateOnMiss: true}
	p := &pinFixture{
		r:   enforce.NewRouter("edge-0", bf, core.NewTagValidator(reg), rand.New(rand.NewSource(7)), cfg),
		ap:  core.AccessPathOf("edge-0"),
		now: time.Unix(10, 0),
	}
	p.content = &core.Content{Meta: core.ContentMeta{Name: names.MustParse("/prov0/obj1/chunk0"), Level: 1, ProviderKey: prov.Locator()}}
	p.tag, err = core.IssueTag(prov, names.MustParse("/u/alice/KEY/1"), 1, p.ap, time.Unix(100, 0))
	if err != nil {
		t.Fatal(err)
	}
	switch tagCase {
	case "forged":
		p.tag.Signature = append([]byte(nil), p.tag.Signature...)
		p.tag.Signature[0] ^= 0xff
	case "revoked":
		p.revoke = true
	}
	return p
}

// run drives one checkpoint and renders the verdict (and, on the
// Interest path, the VerifyShared follower's) with the cache size after.
func (p *pinFixture) run(t *testing.T, checkpoint string) (string, string) {
	t.Helper()
	switch checkpoint {
	case "edge-miss":
		fast := p.r.EdgeOnInterestFast(p.tag, p.ap, p.content.Meta.Name, p.now)
		return p.parked(t, fast, node.Pending{Op: enforce.OpEdgeInterest})
	case "content-F0", "content-F1":
		flag := 0.0
		if checkpoint == "content-F1" {
			flag = 1
		}
		fast := p.r.ContentOnInterestFast(p.tag, p.content.Meta, flag, p.now)
		return p.parked(t, fast, node.Pending{Op: enforce.OpContent, Content: p.content, Flag: fast.Flag})
	}
	if p.revoke {
		p.r.ApplyRevocation(1, []core.TagID{p.tag.ID()})
	}
	edge, recFlag := checkpoint == "edge-agg", 0.0
	if checkpoint == "agg-F1" {
		recFlag = 1
	}
	rv := p.r.OnDataRecord(edge, false, p.tag, recFlag, enforce.ArrivedData{Content: p.content, Flag: 0.5}, p.now)
	return p.record(rv), ""
}

// parked completes a fast verdict that asked for verification as the
// verify pool does: VerifyMiss for the leader, VerifyShared from the
// leader's outcome for a follower (of a verified leader only).
func (p *pinFixture) parked(t *testing.T, fast enforce.Verdict, pending node.Pending) (string, string) {
	t.Helper()
	if !fast.NeedsVerify() {
		t.Fatalf("fast verdict %s, want verify", p.verdict(fast))
	}
	if p.revoke {
		p.r.ApplyRevocation(1, []core.TagID{p.tag.ID()})
	}
	i := &ndn.Interest{Name: p.content.Meta.Name, Tag: p.tag, AccessPath: p.ap}
	lead := p.r.VerifyMiss(pending.Input(i, p.now))
	got := p.verdict(lead)
	if !lead.Verified {
		return got, ""
	}
	return got, p.verdict(p.r.VerifyShared(pending.Input(i, p.now), lead.Reason))
}

func (p *pinFixture) verdict(v enforce.Verdict) string {
	s := fmt.Sprintf("%s %s %q F=%.3g", v.Action, v.Stage, v.ReasonLabel(), v.Flag)
	if v.Verified {
		s += " verified"
	}
	if v.BFHit {
		s += " bfhit"
	}
	return s + fmt.Sprintf(" bf=%d", p.r.Bloom().Stats().Insertions)
}

func (p *pinFixture) record(rv enforce.RecordVerdict) string {
	deliver := map[enforce.Delivery]string{
		enforce.DeliverNothing: "nothing", enforce.DeliverContent: "content",
		enforce.DeliverContentNACK: "content+nack", enforce.DeliverNACK: "nack",
	}[rv.Deliver]
	s := fmt.Sprintf("%s %s %q F=%.3g", deliver, rv.Stage, core.ReasonLabel(rv.Reason), rv.Flag)
	if rv.Minted {
		s += " minted"
	}
	return s + fmt.Sprintf(" bf=%d", p.r.Bloom().Stats().Insertions)
}
