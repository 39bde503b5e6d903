package enforce

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"github.com/tactic-icn/tactic/internal/bloom"
	"github.com/tactic-icn/tactic/internal/core"
)

// The collaboration protocol's contract (§4.B): when an edge filter
// vouches for a tag, the forwarded Interest carries F = FPP(BF_rE) and
// the content router re-verifies the signature with exactly that
// probability. This test pins the rate end to end over a deterministic
// seeded two-hop chain — edge decision feeding the content decision —
// and checks the measured re-check rate against binomial bounds
// around F.
func TestCoreRecheckRateMatchesEdgeFPP(t *testing.T) {
	prov := newTestSigner(t, 40, "/prov0/KEY/1")
	reg := newTestRegistry(t, prov)

	// A deliberately small edge filter, preloaded with junk entries so
	// its false-positive probability sits near 5% — large enough that
	// 10k trials resolve the rate, small enough to stay a probability.
	edgeBF, err := bloom.NewWithShape(512, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 81; i++ {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], i)
		edgeBF.Add(b[:])
	}
	coreBF, err := bloom.NewPaper(500, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	edge := NewRouter("edge", edgeBF, core.NewTagValidator(reg), rand.New(rand.NewSource(41)), core.Config{})
	coreR := NewRouter("core", coreBF, core.NewTagValidator(reg), rand.New(rand.NewSource(42)), core.Config{})

	tag := issueTestTag(t, prov, 1, 0, testTime(1000))
	meta := core.ContentMeta{Name: testContentName, Level: 1, ProviderKey: prov.Locator()}
	now := testTime(10)

	// The edge learns the tag the way Protocol 2 does — from the
	// registration response.
	edge.EdgeOnTagResponse(tag)
	F := edgeBF.FPP()
	if F < 0.01 || F > 0.2 {
		t.Fatalf("edge filter FPP = %g, preload missed the target regime", F)
	}

	const trials = 10000
	rechecks := 0
	for i := 0; i < trials; i++ {
		edec := edge.EdgeOnInterest(tag, 0, testContentName, now)
		if edec.Denied() || !edec.BFHit {
			t.Fatalf("trial %d: edge decision = %+v, want BF-vouched forward", i, edec)
		}
		if edec.Flag != F {
			t.Fatalf("trial %d: forwarded flag %g != FPP(BF_rE) %g", i, edec.Flag, F)
		}
		cdec := coreR.ContentOnInterest(tag, meta, edec.Flag, now)
		if cdec.Denied() {
			t.Fatalf("trial %d: valid tag NACKed: %v", i, cdec.Reason)
		}
		if cdec.Flag != F {
			t.Fatalf("trial %d: content decision rewrote flag %g -> %g", i, F, cdec.Flag)
		}
		if cdec.Verified {
			rechecks++
		}
	}

	// The F != 0 path must never have inserted the tag into the core
	// filter — otherwise later flag-0 requests would skip validation the
	// edge never performed.
	if ins := coreBF.Stats().Insertions; ins != 0 {
		t.Errorf("core filter gained %d insertions on the F != 0 path, want 0", ins)
	}

	rate := float64(rechecks) / trials
	sigma := math.Sqrt(F * (1 - F) / trials)
	if math.Abs(rate-F) > 4*sigma {
		t.Errorf("re-check rate %.5f vs F %.5f (|Δ| > 4σ = %.5f)", rate, F, 4*sigma)
	}
}
