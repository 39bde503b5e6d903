package enforce

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/tactic-icn/tactic/internal/bloom"
	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/pki"
)

func TestEdgeValidateOnMissVerifiesAndInserts(t *testing.T) {
	r, prov := testRouter(t, 50, core.Config{EdgeValidateOnMiss: true})
	now := testTime(10)
	tag := issueTestTag(t, prov, 1, core.AccessPathOf("ap0"), testTime(100))

	// First sight: BF miss -> signature verified, inserted, F = FPP.
	d := r.EdgeOnInterest(tag, core.AccessPathOf("ap0"), testContentName, now)
	if d.Denied() {
		t.Fatalf("valid tag dropped: %v", d.Reason)
	}
	if d.Flag <= 0 {
		t.Errorf("flag = %g, want FPP > 0 after edge validation", d.Flag)
	}
	if r.Validator().Verifications() != 1 {
		t.Errorf("verifications = %d, want 1", r.Validator().Verifications())
	}
	if !r.Bloom().Contains(tag.CacheKey()) {
		t.Error("validated tag not inserted")
	}
	// Second sight: BF hit, no extra verification.
	d = r.EdgeOnInterest(tag, core.AccessPathOf("ap0"), testContentName, now)
	if d.Denied() || d.Flag <= 0 {
		t.Fatalf("second interest: %+v", d)
	}
	if r.Validator().Verifications() != 1 {
		t.Error("BF hit still verified")
	}
}

func TestEdgeValidateOnMissDropsForged(t *testing.T) {
	r, prov := testRouter(t, 51, core.Config{EdgeValidateOnMiss: true})
	forged := issueTestTag(t, prov, 1, 0, testTime(100))
	forged.Signature = append([]byte(nil), forged.Signature...)
	forged.Signature[0] ^= 1
	d := r.EdgeOnInterest(forged, 0, testContentName, testTime(10))
	if !d.Denied() || !errors.Is(d.Reason, core.ErrTagForged) {
		t.Errorf("forged tag at validating edge: %+v", d)
	}
	if r.Bloom().FillRatio() != 0 {
		t.Error("forged tag inserted")
	}
}

func TestRequestDrivenResetCadence(t *testing.T) {
	prov := newTestSigner(t, 52, "/prov0/KEY/1")
	reg := newTestRegistry(t, prov)
	// Sized for 500 items at design FPP 1e-2, resetting at max FPP 1e-4:
	// the filter absorbs CapacityAtFPP(m, k, 1e-4) lookups per reset.
	bf, err := bloom.NewPaperWithDesign(500, 1e-2, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	threshold := bloom.CapacityAtFPP(bf.Bits(), bf.Hashes(), 1e-4)
	if threshold < 50 || threshold > 400 {
		t.Fatalf("threshold = %d, want the paper's ~50-250 band", threshold)
	}
	r := NewRouter("r", bf, core.NewTagValidator(reg), rand.New(rand.NewSource(52)), core.Config{RequestDrivenReset: true})
	tag := issueTestTag(t, prov, 1, 0, testTime(100))
	meta := core.ContentMeta{Name: testContentName, Level: 1, ProviderKey: prov.Locator()}

	const rounds = 3
	for i := uint64(0); i < threshold*rounds+1; i++ {
		r.ContentOnInterest(tag, meta, 0, testTime(10))
	}
	resets := bf.Stats().Resets
	if resets < rounds-1 || resets > rounds+1 {
		t.Errorf("resets = %d after %d lookups (threshold %d), want ~%d",
			resets, threshold*rounds, threshold, rounds)
	}
	// Every reset re-validates on the next sight: verification count
	// tracks reset count + 1 (initial).
	if v := r.Validator().Verifications(); v < resets || v > resets+2 {
		t.Errorf("verifications = %d, want ~resets+1 (%d)", v, resets+1)
	}
}

// TestAggregateALRecheckAndPaperMode pins the access-control gap this
// reproduction found and its default closure: the paper validates
// aggregated PIT tags by signature only (Protocol 2 lines 22-23,
// Protocol 4 lines 11-26), so a valid tag with insufficient access level
// slips through on the aggregation path under PaperAggregates; by
// default both aggregate paths re-check the level and reject it.
func TestAggregateALRecheckAndPaperMode(t *testing.T) {
	now := testTime(10)
	highMeta := func(prov pki.Signer) core.ContentMeta {
		return core.ContentMeta{Name: testContentName, Level: 3, ProviderKey: prov.Locator()}
	}

	// Paper-faithful router: the low-level tag is delivered.
	r, prov := testRouter(t, 54, core.Config{PaperAggregates: true})
	low := issueTestTag(t, prov, 1, 0, testTime(100)) // AL_u=1 < AL_D=3
	if d := r.ContentOnInterest(low, highMeta(prov), 0, now); !d.Denied() {
		t.Fatal("content router should reject the low-level tag (Protocol 1)")
	}
	if r.aggregated(low, highMeta(prov), 0, now).Denied() {
		t.Error("paper-faithful aggregate path should (incorrectly) deliver — the documented flaw")
	}
	if d := r.aggregated(low, highMeta(prov), 0, now); d.Denied() {
		t.Error("paper-faithful intermediate aggregate path should (incorrectly) forward")
	}

	// Default router: both aggregate paths reject it.
	hr, hprov := testRouter(t, 55, core.Config{})
	hlow := issueTestTag(t, hprov, 1, 0, testTime(100))
	if !hr.aggregated(hlow, highMeta(hprov), 0, now).Denied() {
		t.Error("edge aggregate path delivered a low-level tag")
	}
	if d := hr.aggregated(hlow, highMeta(hprov), 0, now); !d.Denied() ||
		!errors.Is(d.Reason, core.ErrInsufficientLevel) {
		t.Errorf("intermediate aggregate path: %+v", d)
	}
	// Valid high-level tags still pass.
	high := issueTestTag(t, hprov, 3, 0, testTime(100))
	if hr.aggregated(high, highMeta(hprov), 0, now).Denied() {
		t.Error("the re-check broke legitimate aggregate delivery")
	}
	// IBAC re-checks whatever PaperAggregates says.
	ir, iprov := testRouter(t, 56, core.Config{Scheme: core.SchemeIBAC, PaperAggregates: true})
	if !ir.aggregated(issueTestTag(t, iprov, 1, 0, testTime(100)), highMeta(iprov), 0, now).Denied() {
		t.Error("IBAC aggregate path delivered a low-level tag under PaperAggregates")
	}
}

func TestRequestDrivenResetRespectsDisableAutoReset(t *testing.T) {
	prov := newTestSigner(t, 53, "/prov0/KEY/1")
	reg := newTestRegistry(t, prov)
	bf, err := bloom.NewPaperWithDesign(100, 1e-2, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter("r", bf, core.NewTagValidator(reg), rand.New(rand.NewSource(53)),
		core.Config{RequestDrivenReset: true, DisableAutoReset: true})
	tag := issueTestTag(t, prov, 1, 0, testTime(100))
	meta := core.ContentMeta{Name: testContentName, Level: 1, ProviderKey: prov.Locator()}
	for i := 0; i < 5000; i++ {
		r.ContentOnInterest(tag, meta, 0, testTime(10))
	}
	if bf.Stats().Resets != 0 {
		t.Errorf("resets = %d with auto-reset disabled", bf.Stats().Resets)
	}
}
