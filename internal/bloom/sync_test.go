package bloom

import (
	"fmt"
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
	if c.Count() != f.Count() {
		t.Fatalf("clone count %d != %d", c.Count(), f.Count())
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
// and holds the sender's count.
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
		if err := dst.MergeWords(src.Bits(), src.Hashes(), words, src.Count()); err != nil {
			t.Fatalf("round %d merge: %v", round, err)
		}
		for i := 0; i < next; i++ {
			if !dst.Contains(syncItem(i)) {
				t.Fatalf("round %d: receiver missing item %d", round, i)
			}
		}
		if dst.Count() != src.Count() {
			t.Fatalf("round %d: receiver count %d != sender %d", round, dst.Count(), src.Count())
		}
	}
}

// TestMergeAdvertTwiceIsIdempotent: the same advert merged again changes
// neither the bit array nor the count, and a smaller count never lowers
// the receiver's.
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
	words, count := src.Words(), src.Count()
	if err := dst.MergeWords(src.Bits(), src.Hashes(), words, count); err != nil {
		t.Fatal(err)
	}
	fill, n := dst.FillRatio(), dst.Count()
	if n != 30 {
		t.Fatalf("count after merging 25 into 30 = %d, want the max, 30", n)
	}
	if err := dst.MergeWords(src.Bits(), src.Hashes(), words, count); err != nil {
		t.Fatal(err)
	}
	if dst.FillRatio() != fill || dst.Count() != n {
		t.Fatalf("second merge moved fill %v -> %v, count %d -> %d", fill, dst.FillRatio(), n, dst.Count())
	}
}

func TestMergeWordsRejectsBadShapes(t *testing.T) {
	dst, err := NewWithShape(640, 5, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.MergeWords(641, 5, nil, 0); err == nil {
		t.Error("accepted mismatched bits")
	}
	if err := dst.MergeWords(640, 4, nil, 0); err == nil {
		t.Error("accepted mismatched hashes")
	}
	// 640 bits = 10 words; index 10 is out of range.
	if err := dst.MergeWords(640, 5, []WordDelta{{Index: 10, Word: 1}}, 0); err == nil {
		t.Error("accepted out-of-range word index")
	}
	// A failed merge must not partially apply.
	if err := dst.MergeWords(640, 5, []WordDelta{{Index: 0, Word: ^uint64(0)}, {Index: 99, Word: 1}}, 5); err == nil {
		t.Error("accepted delta with trailing bad index")
	}
	if dst.FillRatio() != 0 || dst.Count() != 0 {
		t.Error("rejected merge partially applied")
	}
}
