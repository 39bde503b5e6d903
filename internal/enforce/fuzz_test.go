package enforce

import (
	"math/rand"
	"testing"

	"github.com/tactic-icn/tactic/internal/bloom"
	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/pki"
)

// FuzzEnforceDecision drives randomized inputs through every protocol
// checkpoint of both backends and checks the engine's safety
// invariants:
//
//   - no decision path panics, and the Router always drives a verdict
//     to completion (never a dangling ActionVerify);
//   - an expired tag is never delivered at the edge Interest checkpoint
//     and a revoked tag is never delivered anywhere;
//   - a forged signature never delivers through a cold cache on the
//     F = 0 paths (only a Bloom vouch can skip the verification);
//   - every denial carries a populated reason from the stable
//     core.ReasonLabels vocabulary;
//   - denials on the deterministic (F = 0) paths are stable: repeating
//     the call against the same engine state returns the identical
//     (action, stage, reason) verdict.
func FuzzEnforceDecision(f *testing.F) {
	prov := newTestSigner(f, 1, "/prov0/KEY/1")
	prov2 := newTestSigner(f, 2, "/prov1/KEY/1")
	reg := newTestRegistry(f, prov, prov2)

	// scheme/op selectors, tag shape, and path inputs.
	f.Add(false, uint8(0), uint8(2), uint8(2), uint64(7), uint64(7), int16(100), uint8(0), uint16(0), false, false, false, false)
	f.Add(true, uint8(0), uint8(2), uint8(2), uint64(7), uint64(7), int16(100), uint8(0), uint16(0), false, false, false, false)
	f.Add(false, uint8(1), uint8(1), uint8(2), uint64(7), uint64(7), int16(100), uint8(1), uint16(500), false, false, false, false)
	f.Add(true, uint8(2), uint8(2), uint8(1), uint64(7), uint64(9), int16(-50), uint8(0), uint16(0), true, false, false, false)
	f.Add(false, uint8(3), uint8(2), uint8(0), uint64(7), uint64(7), int16(100), uint8(0), uint16(250), false, true, false, false)
	f.Add(false, uint8(2), uint8(3), uint8(2), ^uint64(0), uint64(1), int16(1), uint8(9), uint16(999), false, false, true, false)
	f.Add(true, uint8(1), uint8(0), uint8(3), uint64(0), uint64(0), int16(0), uint8(0), uint16(1000), true, true, false, true)

	f.Fuzz(func(t *testing.T, ibac bool, op, level, contentLevel uint8,
		apRaw, reqRaw uint64, expOff int16, corrupt uint8, flagMilli uint16,
		revoked, nack, otherProv, tagless bool) {

		scheme := core.SchemeTACTIC
		if ibac {
			scheme = core.SchemeIBAC
		}
		cfg := core.Config{Scheme: scheme}
		mk := func(id string, seed int64) *Router {
			bf, err := bloom.NewPaper(500, 1e-4)
			if err != nil {
				t.Fatal(err)
			}
			return NewRouter(id, bf, core.NewTagValidator(reg), rand.New(rand.NewSource(seed)), cfg)
		}
		edge, mid := mk("edge-0", 11), mk("core-0", 12)

		now := testTime(1000)
		signer := pki.Signer(prov)
		if otherProv {
			signer = prov2
		}
		var tag *core.Tag
		if !tagless {
			var err error
			tag, err = core.IssueTag(signer, names.MustParse("/u/alice/KEY/1"),
				core.AccessLevel(level), core.AccessPath(apRaw), testTime(1000+int64(expOff)))
			if err != nil {
				t.Fatal(err)
			}
			if corrupt != 0 {
				tag.Signature = append([]byte(nil), tag.Signature...)
				tag.Signature[int(corrupt)%len(tag.Signature)] ^= corrupt
			}
			if revoked {
				for _, r := range []*Router{edge, mid} {
					r.ApplyRevocation(1, false, []core.TagID{tag.ID()})
				}
			}
		}
		meta := core.ContentMeta{
			Name:        testContentName,
			Level:       core.AccessLevel(contentLevel % 4),
			ProviderKey: prov.Locator(),
		}
		flag := float64(flagMilli%1001) / 1000

		decide := func() Verdict {
			switch op % 4 {
			case 0:
				return edge.EdgeOnInterest(tag, core.AccessPath(reqRaw), meta.Name, now)
			case 1:
				return mid.ContentOnInterest(tag, meta, flag, now)
			case 2:
				// An aggregated record at an intermediate router, as a
				// verdict: delivered only when the content goes alone.
				rv := mid.OnDataRecord(false, false, tag, flag, ArrivedData{Content: &core.Content{Meta: meta}}, now)
				if rv.Deliver == DeliverContent {
					return Verdict{Stage: rv.Stage, Flag: rv.Flag}
				}
				return Verdict{Action: ActionDeny, Stage: rv.Stage, Reason: rv.Reason, Flag: rv.Flag}
			default:
				return edge.EdgeOnData(tag, flag, nack)
			}
		}

		v := decide()
		if v.NeedsVerify() {
			t.Fatalf("Router returned a dangling ActionVerify: %+v", v)
		}

		// Safety: expired tags stop at the edge; revoked tags stop
		// everywhere a tag is (re)checked. Public content ("AL_D = NULL",
		// §5) legitimately skips every tag check at the content
		// checkpoint and on aggregated records, so it is excluded.
		publicBypass := (op%4 == 1 || op%4 == 2) && meta.Level == core.Public
		if tag != nil && op%4 == 0 && tag.Expired(now) && !v.Denied() {
			t.Fatalf("expired tag delivered at edge Interest checkpoint: %+v", v)
		}
		if tag != nil && revoked && op%4 != 3 && !publicBypass && !v.Denied() {
			t.Fatalf("revoked tag delivered (op %d): %+v", op%4, v)
		}
		// A forged signature cannot pass a cold cache when nothing
		// vouches for it: F = 0 content/aggregate checks must verify and
		// deny. (The edge checkpoint under vanilla TACTIC deliberately
		// forwards unverified misses, and under flag-F vouching the
		// probabilistic re-check may skip — both excluded here.)
		if tag != nil && corrupt != 0 && !tag.Expired(now) && !revoked && flag == 0 &&
			(op%4 == 1 || op%4 == 2) && !publicBypass && !v.Denied() {
			t.Fatalf("forged tag delivered through a cold cache: %+v", v)
		}

		if v.Denied() {
			if v.Reason == nil {
				t.Fatalf("denial without a reason: %+v", v)
			}
			label := v.ReasonLabel()
			known := false
			for _, l := range core.ReasonLabels() {
				if l == label {
					known = true
					break
				}
			}
			if !known {
				t.Fatalf("denial reason %q outside the stable vocabulary", label)
			}
			// Deterministic-path stability: with F = 0 no rng draw is
			// involved and denials do not mutate cache state, so the same
			// call must reproduce the same verdict.
			if flag == 0 {
				v2 := decide()
				if v2.Action != v.Action || v2.Stage != v.Stage || v2.ReasonLabel() != v.ReasonLabel() {
					t.Fatalf("denial not stable under repeat: first %+v, then %+v", v, v2)
				}
			}
		}
	})
}
