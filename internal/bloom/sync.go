package bloom

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Neighbor-sync primitives. Edge routers advertise their validated-tag
// filters to peers whole: the filter's non-zero words. Receivers OR the
// words in. Bits only accumulate between resets, so word-wise OR is
// exactly set union, an advert merged twice — or by a peer that missed
// every earlier one — ends in the same state, and the receiver's FPP is
// the union's, read from its bits like any filter's.

// WordDelta is one non-zero 64-bit word of a filter's bit array.
type WordDelta struct {
	// Index is the word's position in the bit array.
	Index uint32
	// Word is the word's full value (OR-ing it is idempotent, so a
	// replayed advert is harmless).
	Word uint64
}

// ErrShapeMismatch reports a merge between filters of different shapes;
// bit positions are only comparable between identically-shaped filters.
var ErrShapeMismatch = fmt.Errorf("bloom: filter shape mismatch")

// Clone returns a snapshot copy of the filter: same shape and maxFPP, bit
// array copied atomically word by word and its set bits counted,
// operation counters fresh. Used for the previous-epoch fallback filter
// on rotation.
func (f *Filter) Clone() *Filter {
	nf := &Filter{
		bits:   make([]uint64, len(f.bits)),
		nbits:  f.nbits,
		hashes: f.hashes,
		maxFPP: f.maxFPP,
	}
	var ones int
	for i := range f.bits {
		nf.bits[i] = atomic.LoadUint64(&f.bits[i])
		ones += bits.OnesCount64(nf.bits[i])
	}
	nf.ones.Store(int64(ones))
	return nf
}

// Words returns the bit array's non-zero words, read atomically word by
// word: what a sync advert carries, at most one per word of the array.
// The read is not a consistent cut under concurrent Adds (an Add's bits
// may land in a later read), which is fine for sync: the next advert
// carries them.
func (f *Filter) Words() []WordDelta {
	var out []WordDelta
	for i := range f.bits {
		if w := atomic.LoadUint64(&f.bits[i]); w != 0 {
			out = append(out, WordDelta{Index: uint32(i), Word: w})
		}
	}
	return out
}

// MergeWords ORs a peer's advertised words into the filter, counting the
// bits they newly set, so FPP (and with it Saturated and the
// collaboration flag F) is the union's. The sender's shape must match;
// words indexing past the bit array are rejected, and a rejected merge
// changes nothing. Bits of the last word past m are dropped: no probe
// reads them, so they are neither set nor counted.
func (f *Filter) MergeWords(nbits uint64, hashes uint32, words []WordDelta) error {
	if nbits != f.nbits || hashes != f.hashes {
		return fmt.Errorf("%w: got %d bits/%d hashes, have %d/%d", ErrShapeMismatch, nbits, hashes, f.nbits, f.hashes)
	}
	for _, w := range words {
		if int(w.Index) >= len(f.bits) {
			return fmt.Errorf("%w: word index %d past %d words", ErrShapeMismatch, w.Index, len(f.bits))
		}
	}
	last, tail := uint32(len(f.bits)-1), ^uint64(0)
	if r := f.nbits % 64; r != 0 {
		tail = 1<<r - 1
	}
	var set int64
	for _, w := range words {
		word := w.Word
		if w.Index == last {
			word &= tail
		}
		set += setBits(&f.bits[w.Index], word)
	}
	f.ones.Add(set)
	return nil
}
