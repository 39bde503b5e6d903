// Package bloom implements the Bloom filters that TACTIC routers use to
// cache tag-validation results.
//
// A router verifies a tag's signature once, inserts the tag into its
// filter, and answers subsequent requests with a constant-time lookup
// instead of a signature verification. The package follows the classic
// construction analysed by Mullin ("A second look at Bloom filters",
// CACM 1983, the paper's reference [18]): m bits and k independent hash
// functions realised by double hashing. A non-member passes all k probes
// with probability FPP = (s/m)^k for s bits set; the filter counts its set
// bits as they change, so FPP is exact and O(1), and it is the one figure
// behind the collaboration flag F = FPP(BF_rE), the saturation reset and
// the exported gauges. Duplicate inserts and merged adverts move it only
// as far as they move the bits. TheoreticalFPP gives the textbook
// expectation (1 - e^(-kn/m))^k for n distinct elements.
//
// TACTIC's auto-reset policy (Section 8.A of the paper) is provided via
// Saturated: when the filter's FPP reaches the configured maximum, the
// router clears the filter and re-validates tags as they reappear.
//
// Filters are safe for concurrent use: the bit array is a word-striped
// atomic bitset (compare-and-swap OR on insert, atomic loads on lookup)
// and all counters are atomics, so the forwarding hot path never takes a
// lock. Concurrency weakens exactly one guarantee: an Add racing a Reset
// may be partially erased, so a concurrent filter can produce a false
// NEGATIVE for an element inserted around a reset. In TACTIC that is
// benign — a miss only sends the tag back through signature
// verification and re-insertion, which is precisely what a reset demands
// anyway. The set-bit count is exact once the filter is quiescent; in
// between it can lag an insert or merge in flight or lead a Reset in
// flight.
package bloom

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"

	"github.com/tactic-icn/tactic/internal/obs"
)

// Errors returned by filter construction.
var (
	// ErrBadCapacity is returned for non-positive capacities.
	ErrBadCapacity = errors.New("bloom: capacity must be positive")
	// ErrBadFPP is returned for target false-positive probabilities
	// outside (0, 1).
	ErrBadFPP = errors.New("bloom: target FPP must be in (0, 1)")
	// ErrBadShape is returned for invalid explicit (bits, hashes) shapes.
	ErrBadShape = errors.New("bloom: bits and hashes must be positive")
)

// Stats counts filter operations since construction. TACTIC's evaluation
// (Fig. 7, Fig. 8, Table V) reports exactly these counters.
type Stats struct {
	// Lookups counts Contains calls.
	Lookups uint64
	// Insertions counts Add calls.
	Insertions uint64
	// Resets counts Reset calls (including auto-resets driven by the
	// caller observing Saturated).
	Resets uint64
	// Absorbed sums, over every reset, the lookups the filter absorbed
	// since the previous one (the paper's "BF reset threshold", Fig. 8):
	// the lookups counted when it was last reset.
	Absorbed uint64
}

// lookupSampleMask samples one of every 64 lookups into the optional
// latency histogram, keeping the instrumented hot path free of clock
// reads on the other 63.
const lookupSampleMask = 63

// Filter is a counting-free Bloom filter, safe for concurrent use (see
// the package comment for the one weakened guarantee around Reset).
type Filter struct {
	bits   []uint64
	nbits  uint64
	hashes uint32
	maxFPP float64
	// ones counts the set bits. It changes only where a bit changes: a
	// compare-and-swap that sets new bits adds them, a Reset subtracts
	// the bits it swaps out. It equals the bits' popcount once the filter
	// is quiescent. In between it can lag an insert or merge in flight
	// (bits set, not yet added) or lead a Reset in flight (a word swapped
	// out, not yet subtracted). It is signed, so a count racing below zero
	// reads as an empty filter instead of wrapping.
	ones atomic.Int64

	lookups    atomic.Uint64
	insertions atomic.Uint64
	resets     atomic.Uint64
	// lookupsAtReset is the lookup count at the last reset: the paper's
	// Fig. 8 reports the requests a filter absorbs per reset, and the
	// lookups since are the ones the current filter has absorbed.
	lookupsAtReset atomic.Uint64

	// lookupSeconds, when set, receives a sampled latency distribution of
	// Contains calls (1 in 64).
	lookupSeconds atomic.Pointer[obs.Histogram]
}

// New creates a filter sized for the given expected capacity and target
// false-positive probability using the optimal parameters
// m = -n·ln(p)/ln(2)² and k = (m/n)·ln(2).
func New(capacity int, targetFPP float64) (*Filter, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadCapacity, capacity)
	}
	if targetFPP <= 0 || targetFPP >= 1 {
		return nil, fmt.Errorf("%w: %g", ErrBadFPP, targetFPP)
	}
	nbits := uint64(math.Ceil(-float64(capacity) * math.Log(targetFPP) / (math.Ln2 * math.Ln2)))
	if nbits == 0 {
		nbits = 1
	}
	hashes := uint32(math.Round(float64(nbits) / float64(capacity) * math.Ln2))
	if hashes == 0 {
		hashes = 1
	}
	return NewWithShape(nbits, hashes, targetFPP)
}

// NewWithShape creates a filter with an explicit number of bits and hash
// functions; maxFPP sets the saturation threshold used by Saturated. The
// paper's simulations fix hashes = 5 and maxFPP = 1e-4.
func NewWithShape(nbits uint64, hashes uint32, maxFPP float64) (*Filter, error) {
	if nbits == 0 || hashes == 0 {
		return nil, ErrBadShape
	}
	if maxFPP <= 0 || maxFPP >= 1 {
		return nil, fmt.Errorf("%w: %g", ErrBadFPP, maxFPP)
	}
	return &Filter{
		bits:   make([]uint64, (nbits+63)/64),
		nbits:  nbits,
		hashes: hashes,
		maxFPP: maxFPP,
	}, nil
}

// NewPaper creates a filter with the paper's simulation parameters:
// capacity items to index, exactly 5 hash functions, bits sized for the
// given maximum FPP at that capacity.
func NewPaper(capacity int, maxFPP float64) (*Filter, error) {
	return NewPaperWithDesign(capacity, maxFPP, maxFPP)
}

// NewPaperWithDesign creates a filter whose bit array is sized for
// `capacity` items at a *design* FPP, while Saturated still triggers at
// the (typically much lower) maxFPP. This reconstructs the paper's
// evaluation setup: filters "index 500 tags" at an ordinary design point
// (~1e-2) but reset as soon as the estimated FPP reaches the maximum
// (1e-4), which happens well before the design capacity — the reason
// Fig. 8(a) shows a reset every ~50-250 requests for a "500-item"
// filter.
func NewPaperWithDesign(capacity int, designFPP, maxFPP float64) (*Filter, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadCapacity, capacity)
	}
	if designFPP <= 0 || designFPP >= 1 || maxFPP <= 0 || maxFPP >= 1 {
		return nil, fmt.Errorf("%w: design %g max %g", ErrBadFPP, designFPP, maxFPP)
	}
	const paperHashes = 5
	// Solve (1 - e^(-k·n/m))^k = p for m with k fixed:
	// m = -k·n / ln(1 - p^(1/k)).
	p := math.Pow(designFPP, 1.0/paperHashes)
	nbits := uint64(math.Ceil(-paperHashes * float64(capacity) / math.Log(1-p)))
	return NewWithShape(nbits, paperHashes, maxFPP)
}

// SetLookupHistogram attaches a latency histogram sampling 1 of every 64
// Contains calls (nil detaches). Safe to call concurrently with traffic.
func (f *Filter) SetLookupHistogram(h *obs.Histogram) { f.lookupSeconds.Store(h) }

// FNV-1a 64-bit parameters (identical to hash/fnv, inlined to keep the
// per-lookup hashing allocation-free).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashPair produces two independent 64-bit hashes for double hashing:
// FNV-1a over the item, then a SplitMix64 finalizer for the second hash.
// The values are identical to the previous hash/fnv-based implementation
// so persisted expectations (tests, experiment traces) are unchanged.
func hashPair(item []byte) (uint64, uint64) {
	h1 := uint64(fnvOffset64)
	for _, b := range item {
		h1 ^= uint64(b)
		h1 *= fnvPrime64
	}
	// SplitMix64 finalizer over h1 gives a decorrelated second hash.
	z := h1 + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	h2 := z ^ (z >> 31)
	// h2 must be odd so that successive probes cover the bit space even
	// when nbits is even.
	return h1, h2 | 1
}

// setBits ORs mask into a word with a compare-and-swap loop (the
// dedicated atomic.Or* helpers require a newer Go toolchain than go.mod
// pins) and returns how many of mask's bits it newly set.
func setBits(word *uint64, mask uint64) int64 {
	for {
		old := atomic.LoadUint64(word)
		if old&mask == mask {
			return 0
		}
		if atomic.CompareAndSwapUint64(word, old, old|mask) {
			return int64(bits.OnesCount64(mask &^ old))
		}
	}
}

// Add inserts an item. Safe for concurrent use.
func (f *Filter) Add(item []byte) {
	f.insertions.Add(1)
	h1, h2 := hashPair(item)
	var set int64
	for i := uint32(0); i < f.hashes; i++ {
		pos := (h1 + uint64(i)*h2) % f.nbits
		set += setBits(&f.bits[pos/64], 1<<(pos%64))
	}
	if set != 0 {
		f.ones.Add(set)
	}
}

// Contains tests membership. False positives occur with probability FPP.
// False negatives occur only for insertions racing a Reset (see the
// package comment); on a quiescent filter they never occur.
func (f *Filter) Contains(item []byte) bool {
	n := f.lookups.Add(1)
	var hist *obs.Histogram
	var start time.Time
	if n&lookupSampleMask == 0 {
		if hist = f.lookupSeconds.Load(); hist != nil {
			start = time.Now()
		}
	}
	h1, h2 := hashPair(item)
	hit := true
	for i := uint32(0); i < f.hashes; i++ {
		pos := (h1 + uint64(i)*h2) % f.nbits
		if atomic.LoadUint64(&f.bits[pos/64])&(1<<(pos%64)) == 0 {
			hit = false
			break
		}
	}
	if hist != nil {
		hist.Observe(time.Since(start).Seconds())
	}
	return hit
}

// FPP returns the filter's false-positive probability (s/m)^k for the s
// bits set: the chance that a non-member passes all k probes. It reads
// one counter, so it stays O(1) on the lookup path.
func (f *Filter) FPP() float64 {
	s := f.ones.Load()
	if s <= 0 {
		return 0
	}
	return math.Pow(float64(s)/float64(f.nbits), float64(f.hashes))
}

// MaxFPP returns the configured saturation threshold.
func (f *Filter) MaxFPP() float64 { return f.maxFPP }

// Saturated reports whether the filter's FPP has reached the configured
// maximum; per the paper, the owning router should Reset.
func (f *Filter) Saturated() bool { return f.FPP() >= f.maxFPP }

// Reset clears all bits and records the lookups the filter absorbed since
// the previous reset (the paper's "BF reset threshold", Fig. 8). Each
// word is swapped out and exactly its bits are subtracted from the
// set-bit count, so an Add racing the reset cannot leave the count off.
func (f *Filter) Reset() {
	for i := range f.bits {
		if old := atomic.SwapUint64(&f.bits[i], 0); old != 0 {
			f.ones.Add(-int64(bits.OnesCount64(old)))
		}
	}
	f.resets.Add(1)
	f.lookupsAtReset.Store(f.lookups.Load())
}

// Bits returns the filter's bit-array size m.
func (f *Filter) Bits() uint64 { return f.nbits }

// Hashes returns the number of hash functions k.
func (f *Filter) Hashes() uint32 { return f.hashes }

// Stats returns a snapshot of the operation counters.
func (f *Filter) Stats() Stats {
	return Stats{
		Lookups:    f.lookups.Load(),
		Insertions: f.insertions.Load(),
		Resets:     f.resets.Load(),
		Absorbed:   f.lookupsAtReset.Load(),
	}
}

// RequestsSinceReset returns the number of lookups since the last reset.
func (f *Filter) RequestsSinceReset() uint64 {
	at := f.lookupsAtReset.Load() // first: it holds a count lookups already reached
	return f.lookups.Load() - at
}

// FillRatio returns the fraction of set bits, s/m, from the same count
// FPP reads.
func (f *Filter) FillRatio() float64 {
	return float64(max(f.ones.Load(), 0)) / float64(f.nbits)
}

// TheoreticalFPP computes the textbook FPP for a filter with m bits and
// k hashes holding n elements. Exposed for experiment harnesses and
// tests.
func TheoreticalFPP(m uint64, k uint32, n uint64) float64 {
	if n == 0 || m == 0 {
		return 0
	}
	return math.Pow(1-math.Exp(-float64(k)*float64(n)/float64(m)), float64(k))
}

// CapacityAtFPP returns the number of elements a filter with m bits and
// k hashes can hold before its FPP reaches p: the inverse of
// TheoreticalFPP in n.
func CapacityAtFPP(m uint64, k uint32, p float64) uint64 {
	if p <= 0 || p >= 1 || m == 0 || k == 0 {
		return 0
	}
	// n = -m/k · ln(1 - p^(1/k))
	inner := 1 - math.Pow(p, 1/float64(k))
	if inner <= 0 {
		return 0
	}
	n := -float64(m) / float64(k) * math.Log(inner)
	if n < 0 {
		return 0
	}
	return uint64(n)
}
