package bloom

import (
	"fmt"
	"sync"
	"testing"
)

// TestFilterConcurrent drives Add, Contains, and Reset from many
// goroutines; it exists for the race detector (the filter is lock-free)
// and asserts the properties that survive concurrency: counters balance
// and no false negatives on a quiescent filter.
func TestFilterConcurrent(t *testing.T) {
	f, err := New(4096, 1e-3)
	if err != nil {
		t.Fatal(err)
	}

	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				f.Add([]byte(fmt.Sprintf("tag-%d-%d", w, i)))
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Concurrent lookups may land before the insert or around a
				// reset; only the absence of data races is asserted here.
				f.Contains([]byte(fmt.Sprintf("tag-%d-%d", w, i)))
			}
		}(w)
	}
	// One goroutine resets while traffic is in flight, as a saturated
	// router would.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			f.Reset()
		}
	}()
	wg.Wait()

	stats := f.Stats()
	if stats.Insertions != workers*perWorker {
		t.Fatalf("Insertions = %d, want %d", stats.Insertions, workers*perWorker)
	}
	if stats.Lookups != workers*perWorker {
		t.Fatalf("Lookups = %d, want %d", stats.Lookups, workers*perWorker)
	}
	if stats.Resets != 10 {
		t.Fatalf("Resets = %d, want 10", stats.Resets)
	}

	// Quiescent re-check: re-insert everything, then every element must be
	// found (no false negatives once racing resets have stopped).
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			f.Add([]byte(fmt.Sprintf("tag-%d-%d", w, i)))
		}
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			if !f.Contains([]byte(fmt.Sprintf("tag-%d-%d", w, i))) {
				t.Fatalf("false negative for tag-%d-%d on quiescent filter", w, i)
			}
		}
	}
}

// TestLookupNoAllocs pins the hot-path property the forwarding plane
// depends on: a Bloom-filter lookup, an insert and the FPP a hit stamps
// perform zero heap allocations per operation.
func TestLookupNoAllocs(t *testing.T) {
	f, err := NewPaper(500, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("users/alice/KEY/1|prov0|tag-bytes-representative")
	f.Add(key)

	if avg := testing.AllocsPerRun(1000, func() { f.Contains(key) }); avg != 0 {
		t.Errorf("Contains allocates %.1f times per op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() { f.Add(key) }); avg != 0 {
		t.Errorf("Add allocates %.1f times per op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() { _ = f.FPP() }); avg != 0 {
		t.Errorf("FPP allocates %.1f times per op, want 0", avg)
	}
}

// TestSetBitCountRaces races Add, MergeWords, Reset and Clone from many
// goroutines (for the race detector) and then requires, once quiescent,
// that the set-bit count agrees with the bits: FPP equals (popcount/m)^k
// bit for bit, on the filter and on every clone taken mid-race.
func TestSetBitCountRaces(t *testing.T) {
	f, err := NewPaper(500, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := NewPaper(500, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		peer.Add([]byte(fmt.Sprintf("peer-%d", i)))
	}
	advert := peer.Words()

	const workers, perWorker = 4, 400
	var wg sync.WaitGroup
	clones := make([]*Filter, 20)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				f.Add([]byte(fmt.Sprintf("tag-%d-%d", w, i%150)))
			}
		}(w)
	}
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := f.MergeWords(peer.Bits(), peer.Hashes(), advert); err != nil {
				t.Error(err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			f.Reset()
		}
	}()
	go func() {
		defer wg.Done()
		for i := range clones {
			clones[i] = f.Clone()
		}
	}()
	wg.Wait()

	for _, flt := range append(clones, f) {
		if got, want := flt.FPP(), exactFPP(flt); got != want {
			t.Fatalf("quiescent FPP = %g, want (popcount/m)^k = %g", got, want)
		}
	}
	// And the count keeps tracking the bits after the race.
	if err := f.MergeWords(peer.Bits(), peer.Hashes(), advert); err != nil {
		t.Fatal(err)
	}
	if got, want := f.FPP(), exactFPP(f); got != want {
		t.Fatalf("FPP after a quiescent merge = %g, want %g", got, want)
	}
}
