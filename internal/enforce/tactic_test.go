package enforce

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/tactic-icn/tactic/internal/bloom"
	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
)

// --- Protocol 2: edge router --------------------------------------------------

func TestEdgeOnInterestFlagProgression(t *testing.T) {
	r, prov := testRouter(t, 23, core.Config{})
	now := testTime(10)
	tag := issueTestTag(t, prov, 1, core.AccessPathOf("ap0"), testTime(100))

	// First sight: tag not in BF, F = 0.
	d := r.EdgeOnInterest(tag, core.AccessPathOf("ap0"), testContentName, now)
	if d.Denied() || d.Flag != 0 {
		t.Fatalf("first interest: %+v", d)
	}
	// Simulate upstream validation: Data returns with F = 0, edge
	// inserts (Protocol 2 lines 14-15).
	if r.EdgeOnData(tag, 0, false).Denied() {
		t.Fatal("valid data should be delivered")
	}
	// Second sight: in BF, F = FPP > 0.
	d = r.EdgeOnInterest(tag, core.AccessPathOf("ap0"), testContentName, now)
	if d.Denied() {
		t.Fatalf("second interest dropped: %v", d.Reason)
	}
	if d.Flag <= 0 || d.Flag >= 1 {
		t.Errorf("second interest flag = %g, want the BF's FPP in (0,1)", d.Flag)
	}
	if d.Flag != r.Bloom().FPP() {
		t.Errorf("flag %g != BF FPP %g", d.Flag, r.Bloom().FPP())
	}
}

func TestEdgeOnInterestAccessPathMismatch(t *testing.T) {
	// Threat (e): tag shared to a different location.
	r, prov := testRouter(t, 24, core.Config{})
	tag := issueTestTag(t, prov, 1, core.AccessPathOf("ap-home"), testTime(100))
	d := r.EdgeOnInterest(tag, core.AccessPathOf("ap-away"), testContentName, testTime(10))
	if !d.Denied() || !errors.Is(d.Reason, core.ErrAccessPathMismatch) {
		t.Errorf("shared tag: %+v", d)
	}
}

func TestEdgeOnInterestPreCheckDrops(t *testing.T) {
	r, prov := testRouter(t, 25, core.Config{})
	now := testTime(10)
	expired := issueTestTag(t, prov, 1, 0, testTime(5))
	if d := r.EdgeOnInterest(expired, 0, testContentName, now); !d.Denied() || !errors.Is(d.Reason, core.ErrTagExpired) {
		t.Errorf("expired: %+v", d)
	}
	cross := issueTestTag(t, prov, 1, 0, testTime(100))
	if d := r.EdgeOnInterest(cross, 0, names.MustParse("/prov9/x/y"), now); !d.Denied() || !errors.Is(d.Reason, core.ErrPrefixMismatch) {
		t.Errorf("cross-provider: %+v", d)
	}
}

func TestEdgeOnInterestNilTagForwards(t *testing.T) {
	// Tagless requests must reach content routers so Public content
	// stays reachable; enforcement for private content happens there.
	r, _ := testRouter(t, 26, core.Config{})
	d := r.EdgeOnInterest(nil, 0, testContentName, testTime(10))
	if d.Denied() || d.Flag != 0 {
		t.Errorf("nil tag: %+v", d)
	}
}

func TestEdgeOnDataNACKDropsDelivery(t *testing.T) {
	r, prov := testRouter(t, 27, core.Config{})
	tag := issueTestTag(t, prov, 1, 0, testTime(100))
	if !r.EdgeOnData(tag, 0, true).Denied() {
		t.Error("NACKed data must not be delivered (Protocol 2 lines 19-20)")
	}
	// And the tag must not have been inserted.
	if r.Bloom().FillRatio() != 0 {
		t.Error("NACKed data should not insert the tag")
	}
}

func TestEdgeOnDataInsertOnlyWhenFlagZero(t *testing.T) {
	// Protocol 2 lines 14-17: F = 0 -> insert; F != 0 -> skip
	// re-insertion.
	r, prov := testRouter(t, 28, core.Config{})
	tag := issueTestTag(t, prov, 1, 0, testTime(100))
	r.EdgeOnData(tag, 0.001, false)
	if got := r.Bloom().Stats().Insertions; got != 0 {
		t.Errorf("F != 0 inserted %d times", got)
	}
	r.EdgeOnData(tag, 0, false)
	if got := r.Bloom().Stats().Insertions; got != 1 {
		t.Errorf("F = 0 insertions = %d, want 1", got)
	}
}

func TestEdgeOnTagResponse(t *testing.T) {
	// Protocol 2 lines 11-12: fresh tag from the producer is inserted.
	r, prov := testRouter(t, 29, core.Config{})
	tag := issueTestTag(t, prov, 1, 0, testTime(100))
	r.EdgeOnTagResponse(tag)
	if !r.Bloom().Contains(tag.CacheKey()) {
		t.Error("tag response should be inserted into the BF")
	}
}

func TestEdgeOnAggregatedData(t *testing.T) {
	r, prov := testRouter(t, 30, core.Config{})
	now := testTime(10)
	valid := issueTestTag(t, prov, 1, 0, testTime(100))

	// Not in BF: signature verified, inserted, delivered.
	if r.aggregated(valid, aggMeta(prov), 0, now).Denied() {
		t.Error("valid aggregated tag should be delivered")
	}
	if r.Validator().Verifications() != 1 {
		t.Errorf("verifications = %d, want 1", r.Validator().Verifications())
	}
	// Second time: BF hit, no extra verification.
	if r.aggregated(valid, aggMeta(prov), 0, now).Denied() {
		t.Error("BF-cached aggregated tag should be delivered")
	}
	if r.Validator().Verifications() != 1 {
		t.Errorf("BF hit still verified (count %d)", r.Validator().Verifications())
	}
	// Invalid signature: dropped.
	forged := issueTestTag(t, prov, 1, 0, testTime(100))
	forged.Signature = append([]byte(nil), forged.Signature...)
	forged.Signature[0] ^= 0xff
	if !r.aggregated(forged, aggMeta(prov), 0, now).Denied() {
		t.Error("forged aggregated tag delivered")
	}
	if !r.aggregated(nil, aggMeta(prov), 0, now).Denied() {
		t.Error("nil aggregated tag delivered")
	}
}

// --- Protocol 3: content router --------------------------------------------------

func TestContentOnInterestPublicBypass(t *testing.T) {
	r, prov := testRouter(t, 31, core.Config{})
	meta := core.ContentMeta{Name: testContentName, Level: core.Public, ProviderKey: prov.Locator()}
	d := r.ContentOnInterest(nil, meta, 0, testTime(10))
	if d.Denied() {
		t.Error("public content must not require a tag")
	}
	if r.Validator().Verifications() != 0 || r.Bloom().Stats().Lookups != 0 {
		t.Error("public content triggered tag work")
	}
}

func TestContentOnInterestPrivateNoTag(t *testing.T) {
	// Threat (a): private content without a tag.
	r, prov := testRouter(t, 32, core.Config{})
	meta := core.ContentMeta{Name: testContentName, Level: 1, ProviderKey: prov.Locator()}
	d := r.ContentOnInterest(nil, meta, 0, testTime(10))
	if !d.Denied() || !errors.Is(d.Reason, core.ErrNoTag) {
		t.Errorf("tagless private request: %+v", d)
	}
}

func TestContentOnInterestFlagZeroPath(t *testing.T) {
	r, prov := testRouter(t, 33, core.Config{})
	now := testTime(10)
	meta := core.ContentMeta{Name: testContentName, Level: 1, ProviderKey: prov.Locator()}
	tag := issueTestTag(t, prov, 1, 0, testTime(100))

	// Miss -> verify -> insert -> serve with F = 0.
	d := r.ContentOnInterest(tag, meta, 0, now)
	if d.Denied() || d.Flag != 0 {
		t.Fatalf("first request: %+v", d)
	}
	if r.Validator().Verifications() != 1 {
		t.Errorf("verifications = %d", r.Validator().Verifications())
	}
	// Hit -> serve with F = 0, no verification.
	d = r.ContentOnInterest(tag, meta, 0, now)
	if d.Denied() || d.Flag != 0 {
		t.Fatalf("second request: %+v", d)
	}
	if r.Validator().Verifications() != 1 {
		t.Errorf("BF hit still verified (count %d)", r.Validator().Verifications())
	}
}

func TestContentOnInterestInvalidTagNACKs(t *testing.T) {
	r, prov := testRouter(t, 34, core.Config{})
	meta := core.ContentMeta{Name: testContentName, Level: 1, ProviderKey: prov.Locator()}
	forged := issueTestTag(t, prov, 1, 0, testTime(100))
	forged.Signature = append([]byte(nil), forged.Signature...)
	forged.Signature[3] ^= 0x55
	d := r.ContentOnInterest(forged, meta, 0, testTime(10))
	if !d.Denied() || !errors.Is(d.Reason, core.ErrTagForged) {
		t.Errorf("forged tag: %+v", d)
	}
}

func TestContentOnInterestPreChecks(t *testing.T) {
	r, prov := testRouter(t, 35, core.Config{})
	now := testTime(10)
	meta := core.ContentMeta{Name: testContentName, Level: 5, ProviderKey: prov.Locator()}
	// Threat (d): insufficient access level.
	low := issueTestTag(t, prov, 2, 0, testTime(100))
	if d := r.ContentOnInterest(low, meta, 0, now); !d.Denied() || !errors.Is(d.Reason, core.ErrInsufficientLevel) {
		t.Errorf("insufficient level: %+v", d)
	}
	// Pre-check must fire before any expensive work.
	if r.Validator().Verifications() != 0 {
		t.Error("pre-check failure still verified a signature")
	}
}

func TestContentOnInterestProbabilisticRevalidation(t *testing.T) {
	// With F = 1 the content router must always re-validate; a forged
	// tag that slipped through an edge false positive is caught.
	r, prov := testRouter(t, 36, core.Config{})
	meta := core.ContentMeta{Name: testContentName, Level: 1, ProviderKey: prov.Locator()}
	forged := issueTestTag(t, prov, 1, 0, testTime(100))
	forged.Signature = append([]byte(nil), forged.Signature...)
	forged.Signature[0] ^= 1
	d := r.ContentOnInterest(forged, meta, 1.0, testTime(10))
	if !d.Denied() {
		t.Error("F = 1 must force re-validation and catch the forgery")
	}

	// With F ~ 0 the router trusts the edge and serves without
	// verification, copying F into the Data.
	r2, prov2 := testRouter(t, 37, core.Config{})
	meta2 := core.ContentMeta{Name: testContentName, Level: 1, ProviderKey: prov2.Locator()}
	tag := issueTestTag(t, prov2, 1, 0, testTime(100))
	const tiny = 1e-12
	d = r2.ContentOnInterest(tag, meta2, tiny, testTime(10))
	if d.Denied() {
		t.Errorf("tiny-F request NACKed: %v", d.Reason)
	}
	if d.Flag != tiny {
		t.Errorf("data flag = %g, want F copied (%g)", d.Flag, tiny)
	}
	if r2.Validator().Verifications() != 0 {
		t.Error("tiny F should (almost surely) skip verification")
	}
}

func TestContentOnInterestRevalidationFrequencyTracksF(t *testing.T) {
	// Re-validation should happen with probability ~F.
	r, prov := testRouter(t, 38, core.Config{})
	meta := core.ContentMeta{Name: testContentName, Level: 1, ProviderKey: prov.Locator()}
	tag := issueTestTag(t, prov, 1, 0, testTime(100))
	const f, trials = 0.25, 4000
	for i := 0; i < trials; i++ {
		r.ContentOnInterest(tag, meta, f, testTime(10))
	}
	got := float64(r.Validator().Verifications()) / trials
	if got < f*0.8 || got > f*1.2 {
		t.Errorf("re-validation rate %.3f, want ~%.2f", got, f)
	}
}

// --- Protocol 4: intermediate router ---------------------------------------------

func TestIntermediateAggregatedValidation(t *testing.T) {
	r, prov := testRouter(t, 39, core.Config{})
	now := testTime(10)
	tag := issueTestTag(t, prov, 1, 0, testTime(100))

	// F = 0, BF miss: verify + insert + forward.
	d := r.aggregated(tag, aggMeta(prov), 0, now)
	if d.Denied() || d.Flag != 0 {
		t.Fatalf("F=0 aggregated: %+v", d)
	}
	if r.Validator().Verifications() != 1 {
		t.Errorf("verifications = %d", r.Validator().Verifications())
	}
	// F = 0, BF hit: forward without verification.
	d = r.aggregated(tag, aggMeta(prov), 0, now)
	if d.Denied() {
		t.Fatalf("BF hit NACKed: %v", d.Reason)
	}
	if r.Validator().Verifications() != 1 {
		t.Error("BF hit still verified")
	}
	// Invalid tag: forward with NACK (content still flows).
	forged := issueTestTag(t, prov, 1, 0, testTime(100))
	forged.Signature = append([]byte(nil), forged.Signature...)
	forged.Signature[1] ^= 2
	d = r.aggregated(forged, aggMeta(prov), 0, now)
	if !d.Denied() {
		t.Error("forged aggregated tag forwarded without NACK")
	}
	// nil tag NACKs.
	if d := r.aggregated(nil, aggMeta(prov), 0, now); !d.Denied() {
		t.Error("nil aggregated tag forwarded without NACK")
	}
}

func TestIntermediateTrustsEdgeFlag(t *testing.T) {
	r, prov := testRouter(t, 40, core.Config{})
	tag := issueTestTag(t, prov, 1, 0, testTime(100))
	const tiny = 1e-12
	d := r.aggregated(tag, aggMeta(prov), tiny, testTime(10))
	if d.Denied() || d.Flag != tiny {
		t.Errorf("trusted aggregated tag: %+v", d)
	}
	if r.Validator().Verifications() != 0 {
		t.Error("trusted tag should not be verified")
	}
}

// --- Ablations ---------------------------------------------------------------------

func TestAblationDisableBloomFilter(t *testing.T) {
	r, prov := testRouter(t, 41, core.Config{DisableBloomFilter: true})
	now := testTime(10)
	meta := core.ContentMeta{Name: testContentName, Level: 1, ProviderKey: prov.Locator()}
	tag := issueTestTag(t, prov, 1, 0, testTime(100))
	for i := 0; i < 5; i++ {
		if d := r.ContentOnInterest(tag, meta, 0, now); d.Denied() {
			t.Fatalf("valid tag NACKed: %v", d.Reason)
		}
	}
	if got := r.Validator().Verifications(); got != 5 {
		t.Errorf("without BF every request verifies: got %d, want 5", got)
	}
	if r.Bloom().Stats().Insertions != 0 || r.Bloom().Stats().Lookups != 0 {
		t.Error("disabled BF was touched")
	}
}

func TestAblationDisableCollaboration(t *testing.T) {
	// Ignoring F forces the router onto the F = 0 path: BF/verify even
	// for edge-vouched tags.
	r, prov := testRouter(t, 42, core.Config{DisableCollaboration: true})
	meta := core.ContentMeta{Name: testContentName, Level: 1, ProviderKey: prov.Locator()}
	tag := issueTestTag(t, prov, 1, 0, testTime(100))
	d := r.ContentOnInterest(tag, meta, 0.5, testTime(10))
	if d.Denied() {
		t.Fatalf("valid tag NACKed: %v", d.Reason)
	}
	if r.Validator().Verifications() != 1 {
		t.Errorf("collaboration-disabled router should verify: %d", r.Validator().Verifications())
	}
	if d.Flag != 0 {
		t.Errorf("flag = %g, want 0 (tag validated here)", d.Flag)
	}
}

func TestAblationDisablePrecheck(t *testing.T) {
	// Without the pre-check, an expired tag reaches the signature stage
	// — and still fails there (the validator re-checks expiry), but now
	// at full cost when the signature is checked.
	r, prov := testRouter(t, 43, core.Config{DisablePrecheck: true})
	now := testTime(10)
	// Cross-provider tag passes the edge with pre-check disabled.
	cross := issueTestTag(t, prov, 1, 0, testTime(100))
	d := r.EdgeOnInterest(cross, 0, names.MustParse("/prov9/x/y"), now)
	if d.Denied() {
		t.Errorf("precheck disabled but edge still dropped: %v", d.Reason)
	}
}

func TestAblationDisableAutoReset(t *testing.T) {
	prov := newTestSigner(t, 44, "/prov0/KEY/1")
	reg := newTestRegistry(t, prov)
	bf, err := bloom.NewPaper(8, 1e-2) // tiny filter saturates fast
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter("r", bf, core.NewTagValidator(reg), rand.New(rand.NewSource(44)), core.Config{DisableAutoReset: true})
	for i := 0; i < 100; i++ {
		tag := issueTestTag(t, prov, 1, core.AccessPath(i), testTime(100))
		r.EdgeOnTagResponse(tag)
	}
	if bf.Stats().Resets != 0 {
		t.Errorf("auto-reset disabled but filter reset %d times", bf.Stats().Resets)
	}
	if !bf.Saturated() {
		t.Error("filter should be saturated")
	}
}

func TestAutoResetKeepsNewestTag(t *testing.T) {
	prov := newTestSigner(t, 45, "/prov0/KEY/1")
	reg := newTestRegistry(t, prov)
	bf, err := bloom.NewPaper(8, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter("r", bf, core.NewTagValidator(reg), rand.New(rand.NewSource(45)), core.Config{})
	var last *core.Tag
	for i := 0; i < 200; i++ {
		last = issueTestTag(t, prov, 1, core.AccessPath(i), testTime(100))
		r.EdgeOnTagResponse(last)
	}
	if bf.Stats().Resets == 0 {
		t.Fatal("expected at least one auto-reset")
	}
	if !bf.Contains(last.CacheKey()) {
		t.Error("the most recently validated tag should survive the reset")
	}
}
