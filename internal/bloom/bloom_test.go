package bloom

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func key(i uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], i)
	return b[:]
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 0.01); !errors.Is(err, ErrBadCapacity) {
		t.Errorf("New(0, ...) err = %v", err)
	}
	if _, err := New(10, 0); !errors.Is(err, ErrBadFPP) {
		t.Errorf("New(.., 0) err = %v", err)
	}
	if _, err := New(10, 1); !errors.Is(err, ErrBadFPP) {
		t.Errorf("New(.., 1) err = %v", err)
	}
	if _, err := NewWithShape(0, 5, 0.01); !errors.Is(err, ErrBadShape) {
		t.Errorf("NewWithShape(0, ...) err = %v", err)
	}
	if _, err := NewWithShape(100, 0, 0.01); !errors.Is(err, ErrBadShape) {
		t.Errorf("NewWithShape(.., 0, ..) err = %v", err)
	}
	if _, err := NewPaper(-1, 0.01); err == nil {
		t.Error("NewPaper(-1, ...): expected error")
	}
	if _, err := NewPaper(10, 2); err == nil {
		t.Error("NewPaper(.., 2): expected error")
	}
}

func TestNoFalseNegatives(t *testing.T) {
	f, err := New(1000, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 1000; i++ {
		f.Add(key(i))
	}
	for i := uint64(0); i < 1000; i++ {
		if !f.Contains(key(i)) {
			t.Fatalf("false negative for element %d", i)
		}
	}
}

func TestFalsePositiveRateNearTarget(t *testing.T) {
	const capacity, target = 2000, 0.01
	f, err := New(capacity, target)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < capacity; i++ {
		f.Add(key(i))
	}
	fp := 0
	const probes = 100000
	for i := uint64(capacity); i < capacity+probes; i++ {
		if f.Contains(key(i)) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > target*3 {
		t.Errorf("observed FPP %.5f far above target %.5f", rate, target)
	}
}

func TestEmptyFilter(t *testing.T) {
	f, err := New(100, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if f.FPP() != 0 {
		t.Errorf("empty FPP = %g, want 0", f.FPP())
	}
	if f.Saturated() {
		t.Error("empty filter should not be saturated")
	}
	if f.Contains(key(42)) {
		t.Error("empty filter should contain nothing")
	}
}

func TestSaturationAndReset(t *testing.T) {
	f, err := NewPaper(500, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	// Inserting far beyond capacity must eventually saturate.
	i := uint64(0)
	for !f.Saturated() {
		f.Add(key(i))
		i++
		if i > 1_000_000 {
			t.Fatal("filter never saturated")
		}
	}
	if i < 400 {
		t.Errorf("saturated after only %d inserts; sized too small for capacity 500", i)
	}
	lookupsBefore := f.Stats().Lookups
	f.Contains(key(1))
	f.Contains(key(2))
	f.Reset()
	if f.Saturated() {
		t.Error("freshly reset filter should not be saturated")
	}
	if f.FPP() != 0 || f.FillRatio() != 0 {
		t.Errorf("FPP %g, fill %g after reset, want 0", f.FPP(), f.FillRatio())
	}
	if f.Contains(key(0)) {
		t.Error("reset filter should contain nothing")
	}
	st := f.Stats()
	if st.Resets != 1 {
		t.Errorf("Resets = %d, want 1", st.Resets)
	}
	if st.Lookups != lookupsBefore+3 { // 2 before reset + 1 after
		t.Errorf("Lookups = %d", st.Lookups)
	}
	if st.Absorbed != lookupsBefore+2 {
		t.Errorf("Absorbed = %d, want %d", st.Absorbed, lookupsBefore+2)
	}
	if f.RequestsSinceReset() != 1 {
		t.Errorf("RequestsSinceReset = %d, want 1", f.RequestsSinceReset())
	}
}

func TestPaperShape(t *testing.T) {
	f, err := NewPaper(500, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if f.Hashes() != 5 {
		t.Errorf("paper filter hashes = %d, want 5", f.Hashes())
	}
	// At exactly the design capacity the theoretical FPP should be at
	// (or just under) the max.
	got := TheoreticalFPP(f.Bits(), f.Hashes(), 500)
	if got > 1e-4*1.05 {
		t.Errorf("FPP at capacity = %g, want <= ~1e-4", got)
	}
	// And well under it at half capacity.
	if TheoreticalFPP(f.Bits(), f.Hashes(), 250) >= got {
		t.Error("FPP should grow with element count")
	}
}

func TestCapacityAtFPPInvertsTheory(t *testing.T) {
	const m, k = 50000, uint32(5)
	for _, p := range []float64{1e-4, 1e-3, 1e-2} {
		n := CapacityAtFPP(m, k, p)
		at := TheoreticalFPP(m, k, n)
		above := TheoreticalFPP(m, k, n+2)
		if at > p*1.01 {
			t.Errorf("FPP at capacity(%g) = %g exceeds target", p, at)
		}
		if above < p*0.99 {
			t.Errorf("FPP just above capacity(%g) = %g should be ~target", p, above)
		}
	}
	if CapacityAtFPP(0, 5, 0.01) != 0 || CapacityAtFPP(100, 0, 0.01) != 0 {
		t.Error("degenerate shapes should have zero capacity")
	}
	if CapacityAtFPP(100, 5, 0) != 0 || CapacityAtFPP(100, 5, 1) != 0 {
		t.Error("degenerate FPPs should yield zero capacity")
	}
}

func TestHigherFPPMeansMoreCapacity(t *testing.T) {
	// Fig. 8's x-axis: raising maxFPP from 1e-4 to 1e-2 lets the same
	// filter absorb more elements before a reset.
	const m, k = 40000, uint32(5)
	lo := CapacityAtFPP(m, k, 1e-4)
	hi := CapacityAtFPP(m, k, 1e-2)
	if hi <= lo {
		t.Errorf("capacity at FPP 1e-2 (%d) should exceed capacity at 1e-4 (%d)", hi, lo)
	}
}

func TestBiggerFilterFewerResets(t *testing.T) {
	// Table V's mechanism: a 5000-capacity filter resets far less often
	// than a 500-capacity filter under the same insertion stream.
	run := func(capacity int) uint64 {
		f, err := NewPaper(capacity, 1e-4)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 50000; i++ {
			f.Add(key(i))
			if f.Saturated() {
				f.Reset()
			}
		}
		return f.Stats().Resets
	}
	small, big := run(500), run(5000)
	if big*5 > small {
		t.Errorf("resets: small=%d big=%d; expected ~10x reduction", small, big)
	}
}

func TestFillRatio(t *testing.T) {
	f, err := NewWithShape(1024, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if f.FillRatio() != 0 {
		t.Error("empty filter fill ratio should be 0")
	}
	f.Add(key(1))
	r := f.FillRatio()
	if r <= 0 || r > 3.0/1024 {
		t.Errorf("fill ratio after one insert = %g", r)
	}
}

func TestStatsCounting(t *testing.T) {
	f, err := New(100, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 7; i++ {
		f.Add(key(i))
	}
	for i := uint64(0); i < 11; i++ {
		f.Contains(key(i))
	}
	st := f.Stats()
	if st.Insertions != 7 || st.Lookups != 11 || st.Resets != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPropertyNoFalseNegatives(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		r := rand.New(rand.NewSource(seed))
		count := int(n%512) + 1
		flt, err := New(count, 1e-3)
		if err != nil {
			return false
		}
		items := make([][]byte, count)
		for i := range items {
			items[i] = key(r.Uint64())
			flt.Add(items[i])
		}
		for _, it := range items {
			if !flt.Contains(it) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPropertyResetClears(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		flt, err := New(64, 1e-2)
		if err != nil {
			return false
		}
		for i := 0; i < 64; i++ {
			flt.Add(key(r.Uint64()))
		}
		flt.Reset()
		return flt.FillRatio() == 0 && popcount(flt) == 0 && flt.FPP() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestTheoreticalFPPEdgeCases(t *testing.T) {
	if TheoreticalFPP(100, 5, 0) != 0 {
		t.Error("FPP with zero elements should be 0")
	}
	if TheoreticalFPP(0, 5, 10) != 0 {
		t.Error("FPP with zero bits treated as 0 (degenerate)")
	}
	// Monotone in n.
	prev := 0.0
	for n := uint64(1); n < 2000; n += 100 {
		cur := TheoreticalFPP(1000, 5, n)
		if cur < prev {
			t.Fatalf("FPP not monotone at n=%d", n)
		}
		prev = cur
	}
}

func TestNewPaperWithDesign(t *testing.T) {
	f, err := NewPaperWithDesign(500, 1e-2, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if f.MaxFPP() != 1e-4 {
		t.Errorf("MaxFPP = %g", f.MaxFPP())
	}
	// The bit array is sized for the *design* point: saturation (at the
	// much lower max FPP) occurs well before 500 elements.
	cap4 := CapacityAtFPP(f.Bits(), f.Hashes(), 1e-4)
	if cap4 >= 500 {
		t.Errorf("capacity at max FPP = %d, want < design capacity 500", cap4)
	}
	if cap4 < 50 {
		t.Errorf("capacity at max FPP = %d, implausibly small", cap4)
	}
	// And the design capacity matches ~1e-2.
	if got := TheoreticalFPP(f.Bits(), f.Hashes(), 500); got > 1.2e-2 {
		t.Errorf("FPP at design capacity = %g, want ~1e-2", got)
	}
	for _, bad := range [][3]float64{{0, 1e-2, 1e-4}, {10, 0, 1e-4}, {10, 1e-2, 2}} {
		if _, err := NewPaperWithDesign(int(bad[0]), bad[1], bad[2]); err == nil {
			t.Errorf("NewPaperWithDesign(%v) accepted", bad)
		}
	}
}

// popcount counts the filter's set bits from its words.
func popcount(f *Filter) int {
	n := 0
	for _, w := range f.Words() {
		n += bits.OnesCount64(w.Word)
	}
	return n
}

// exactFPP is (popcount/m)^k, computed the way FPP must be.
func exactFPP(f *Filter) float64 {
	return math.Pow(float64(popcount(f))/float64(f.Bits()), float64(f.Hashes()))
}

// FPP is the exact current false-positive probability of the real bit
// array. It must (a) equal (popcount/m)^k bit for bit, (b) agree closely
// with the textbook expectation (1-e^{-kn/m})^k for n distinct elements
// while the filter is in its design regime, and (c) predict the
// empirically observed false-positive rate of random non-member probes
// within binomial bounds.
func TestFPPMatchesAnalyticAndEmpirical(t *testing.T) {
	f, err := NewWithShape(8192, 5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if f.FPP() != 0 {
		t.Errorf("empty FPP = %g, want 0", f.FPP())
	}
	const inserted = 800
	for i := uint64(0); i < inserted; i++ {
		f.Add(key(i))
	}

	fpp := f.FPP()
	if fpp <= 0 || fpp >= 1 {
		t.Fatalf("FPP = %g, want in (0, 1)", fpp)
	}
	if want := exactFPP(f); fpp != want {
		t.Errorf("FPP = %g, want (popcount/m)^k = %g", fpp, want)
	}
	if fill, want := f.FillRatio(), float64(popcount(f))/8192; fill != want {
		t.Errorf("FillRatio = %g, want %g", fill, want)
	}
	// The fill ratio concentrates sharply around 1-e^{-kn/m} for a
	// filter this size, so the bits and the theory agree within a few
	// percent.
	analytic := TheoreticalFPP(8192, 5, inserted)
	if rel := math.Abs(fpp-analytic) / analytic; rel > 0.10 {
		t.Errorf("FPP %g vs theoretical %g (relative gap %.3f)", fpp, analytic, rel)
	}

	// Empirical check: the rate at which random non-members hit the
	// filter is a binomial sample whose mean is exactly FPP.
	const probes = 200000
	fp := 0
	for i := uint64(inserted); i < inserted+probes; i++ {
		if f.Contains(key(i)) {
			fp++
		}
	}
	rate := float64(fp) / probes
	sigma := math.Sqrt(fpp * (1 - fpp) / probes)
	if math.Abs(rate-fpp) > 5*sigma {
		t.Errorf("empirical FP rate %.5f vs FPP %.5f (|Δ| > 5σ = %.5f)", rate, fpp, 5*sigma)
	}

	// Reset drops the probability back to zero with the bits.
	f.Reset()
	if got := f.FPP(); got != 0 {
		t.Errorf("FPP after reset = %g, want 0", got)
	}
}

// TestDuplicateAddChangesNothing: re-inserting an element sets no new
// bit, so neither FPP nor FillRatio moves.
func TestDuplicateAddChangesNothing(t *testing.T) {
	f, err := NewPaper(500, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		f.Add(key(i))
	}
	fpp, fill := f.FPP(), f.FillRatio()
	for rep := 0; rep < 10; rep++ {
		for i := uint64(0); i < 100; i++ {
			f.Add(key(i))
		}
	}
	if f.FPP() != fpp || f.FillRatio() != fill {
		t.Errorf("duplicates moved FPP %g -> %g, fill %g -> %g", fpp, f.FPP(), fill, f.FillRatio())
	}
	if f.Stats().Insertions != 1100 {
		t.Errorf("Insertions = %d, want every Add counted", f.Stats().Insertions)
	}
}

// BenchmarkFPP times the collaboration flag every edge BF hit stamps, on
// the paper's default filter three quarters full.
func BenchmarkFPP(b *testing.B) {
	f, err := NewPaper(500, 1e-4)
	if err != nil {
		b.Fatal(err)
	}
	for i := uint64(0); i < 400; i++ {
		f.Add(key(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fppSink = f.FPP()
	}
}

var fppSink float64
