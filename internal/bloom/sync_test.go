package bloom

import (
	"fmt"
	"reflect"
	"testing"
)

func syncItem(i int) []byte { return []byte(fmt.Sprintf("tag-%d", i)) }

func TestCloneIndependence(t *testing.T) {
	f, err := NewPaper(500, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		f.Add(syncItem(i))
	}
	c := f.Clone()
	if c.Bits() != f.Bits() || c.Hashes() != f.Hashes() || c.MaxFPP() != f.MaxFPP() {
		t.Fatal("clone changed shape")
	}
	if c.FPP() != f.FPP() || c.FillRatio() != f.FillRatio() {
		t.Fatalf("clone FPP %g, fill %g; original %g, %g", c.FPP(), c.FillRatio(), f.FPP(), f.FillRatio())
	}
	for i := 0; i < 50; i++ {
		if !c.Contains(syncItem(i)) {
			t.Fatalf("clone missing item %d", i)
		}
	}
	if c.Stats().Insertions != 0 {
		t.Fatal("clone inherited operation counters")
	}
	// Mutations do not leak either way.
	c.Add(syncItem(1000))
	if f.Contains(syncItem(1000)) {
		t.Fatal("clone Add leaked into original")
	}
	f.Reset()
	if !c.Contains(syncItem(3)) {
		t.Fatal("original Reset erased the clone")
	}
}

// TestDeltaSyncConverges drives the neighbor-sync cycle: fill, advertise
// the whole filter, merge — after each round the receiver answers
// positive for everything the sender validated, with no false negatives,
// and holds the sender's bits and so its FPP.
func TestDeltaSyncConverges(t *testing.T) {
	src, err := NewPaper(500, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewPaper(500, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if w := src.Words(); w != nil {
		t.Fatalf("an empty filter advertises %v", w)
	}
	next := 0
	for round := 0; round < 3; round++ {
		for i := 0; i < 40; i++ {
			src.Add(syncItem(next))
			next++
		}
		words := src.Words()
		if len(words) == 0 || len(words) > int(src.Bits()+63)/64 {
			t.Fatalf("round %d advertised %d words", round, len(words))
		}
		if err := dst.MergeWords(src.Bits(), src.Hashes(), words); err != nil {
			t.Fatalf("round %d merge: %v", round, err)
		}
		for i := 0; i < next; i++ {
			if !dst.Contains(syncItem(i)) {
				t.Fatalf("round %d: receiver missing item %d", round, i)
			}
		}
		if dst.FPP() != src.FPP() {
			t.Fatalf("round %d: receiver FPP %g != sender %g", round, dst.FPP(), src.FPP())
		}
	}
}

// TestMergeAdvertTwiceIsIdempotent: the same advert merged again changes
// neither the bit array nor the FPP read from it.
func TestMergeAdvertTwiceIsIdempotent(t *testing.T) {
	src, err := NewPaper(500, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewPaper(500, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		src.Add(syncItem(i))
	}
	for i := 100; i < 130; i++ {
		dst.Add(syncItem(i))
	}
	words := src.Words()
	if err := dst.MergeWords(src.Bits(), src.Hashes(), words); err != nil {
		t.Fatal(err)
	}
	fill, fpp := dst.FillRatio(), dst.FPP()
	if fpp != exactFPP(dst) {
		t.Fatalf("FPP after merge = %g, want (popcount/m)^k = %g", fpp, exactFPP(dst))
	}
	if err := dst.MergeWords(src.Bits(), src.Hashes(), words); err != nil {
		t.Fatal(err)
	}
	if dst.FillRatio() != fill || dst.FPP() != fpp {
		t.Fatalf("second merge moved fill %v -> %v, FPP %g -> %g", fill, dst.FillRatio(), fpp, dst.FPP())
	}
}

// TestMergedUnionReadsItsBits: two edges holding 300 disjoint tags each
// in the paper's default filter (14 489 bits, k = 5) are each under the
// 1e-4 maximum, but the union a merge leaves is past it. The receiver's
// FPP is the union's, read from its bits, so it saturates and resets as
// the paper's rule says.
func TestMergedUnionReadsItsBits(t *testing.T) {
	a, err := NewPaper(500, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPaper(500, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Bits() != 14489 || a.Hashes() != 5 {
		t.Fatalf("shape %d/%d, want 14489/5", a.Bits(), a.Hashes())
	}
	for i := 0; i < 300; i++ {
		a.Add(syncItem(i))
		b.Add(syncItem(1000 + i))
	}
	if a.Saturated() || b.Saturated() {
		t.Fatalf("300 tags saturated a filter: FPP %g / %g", a.FPP(), b.FPP())
	}
	if err := b.MergeWords(a.Bits(), a.Hashes(), a.Words()); err != nil {
		t.Fatal(err)
	}
	if got, want := b.FPP(), exactFPP(b); got != want {
		t.Errorf("merged FPP = %g, want (popcount/m)^k = %g", got, want)
	}
	if !b.Saturated() {
		t.Errorf("union of 600 tags not saturated: FPP %g, max %g", b.FPP(), b.MaxFPP())
	}
	t.Logf("FPP of 300 tags %g, of their merged union %g", a.FPP(), b.FPP())
}

// TestMergeWordsDropsPaddingBits: the last word of a 14 489-bit array
// holds 25 bits of the filter and 39 of padding that no probe reads. An
// advert setting the padding leaves the bits, FPP and fill unchanged, and
// an all-ones advert fills the filter exactly: fill 1, FPP 1.
func TestMergeWordsDropsPaddingBits(t *testing.T) {
	f, err := NewPaper(500, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		f.Add(syncItem(i))
	}
	last := uint32(len(f.bits) - 1)
	padding := ^uint64(0) << (f.Bits() % 64)
	words, fpp, fill := f.Words(), f.FPP(), f.FillRatio()
	if err := f.MergeWords(f.Bits(), f.Hashes(), []WordDelta{{Index: last, Word: padding}}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Words(), words) || f.FPP() != fpp || f.FillRatio() != fill {
		t.Errorf("padding advert moved the filter: FPP %g -> %g, fill %v -> %v", fpp, f.FPP(), fill, f.FillRatio())
	}
	ones := make([]WordDelta, last+1)
	for i := range ones {
		ones[i] = WordDelta{Index: uint32(i), Word: ^uint64(0)}
	}
	if err := f.MergeWords(f.Bits(), f.Hashes(), ones); err != nil {
		t.Fatal(err)
	}
	if f.FillRatio() != 1 || f.FPP() != 1 || popcount(f) != int(f.Bits()) {
		t.Errorf("all-ones advert: fill %v, FPP %g, %d bits set; want 1, 1, %d", f.FillRatio(), f.FPP(), popcount(f), f.Bits())
	}
}

func TestMergeWordsRejectsBadShapes(t *testing.T) {
	dst, err := NewWithShape(640, 5, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.MergeWords(641, 5, nil); err == nil {
		t.Error("accepted mismatched bits")
	}
	if err := dst.MergeWords(640, 4, nil); err == nil {
		t.Error("accepted mismatched hashes")
	}
	// 640 bits = 10 words; index 10 is out of range.
	if err := dst.MergeWords(640, 5, []WordDelta{{Index: 10, Word: 1}}); err == nil {
		t.Error("accepted out-of-range word index")
	}
	// A failed merge must not partially apply.
	if err := dst.MergeWords(640, 5, []WordDelta{{Index: 0, Word: ^uint64(0)}, {Index: 99, Word: 1}}); err == nil {
		t.Error("accepted delta with trailing bad index")
	}
	if dst.FillRatio() != 0 || popcount(dst) != 0 {
		t.Error("rejected merge partially applied")
	}
}
