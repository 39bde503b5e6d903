// Flight recorder: a bounded lock-free ring of the most recent finished
// spans, kept in memory per node so /tracez can show "what just
// happened" without any span file. Writers never block and never
// allocate beyond the record itself; readers snapshot without stopping
// writers.
package obs

import (
	"io"
	"sync/atomic"
)

// Recorder retains the last N finished SpanRecords. Add is lock-free
// (one atomic fetch-add for the slot index plus one atomic pointer
// store), so it is safe on the forwarder's concurrent hot path. A nil
// Recorder ignores adds and snapshots empty.
type Recorder struct {
	slots []atomic.Pointer[SpanRecord]
	cur   atomic.Uint64
}

// NewRecorder creates a recorder holding the most recent n spans (n is
// rounded up to a power of two; n <= 0 selects the 1024-span default).
func NewRecorder(n int) *Recorder {
	if n <= 0 {
		n = 1024
	}
	size := 1
	for size < n {
		size <<= 1
	}
	return &Recorder{slots: make([]atomic.Pointer[SpanRecord], size)}
}

// add stores rec, overwriting the oldest retained span once full.
func (r *Recorder) add(rec *SpanRecord) {
	if r == nil {
		return
	}
	i := r.cur.Add(1) - 1
	r.slots[i&uint64(len(r.slots)-1)].Store(rec)
}

// Cap returns the ring capacity (0 for nil).
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// WriteJSONL writes the retained spans, oldest first, as one JSON line
// each — the same line format the live trace writer emits — and returns
// how many spans were written. Used to flush the flight recorder to
// disk on shutdown (tacticd -trace-flush).
func (r *Recorder) WriteJSONL(w io.Writer) (int, error) {
	var buf []byte
	n := 0
	for _, rec := range r.Snapshot() {
		buf = appendSpanJSON(buf[:0], rec)
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Snapshot copies the retained spans, oldest first. Concurrent adds may
// skew ordering near the write cursor; every returned record is
// complete (records are immutable once added).
func (r *Recorder) Snapshot() []*SpanRecord {
	if r == nil {
		return nil
	}
	n := uint64(len(r.slots))
	cur := r.cur.Load()
	out := make([]*SpanRecord, 0, n)
	for i := uint64(0); i < n; i++ {
		if rec := r.slots[(cur+i)&(n-1)].Load(); rec != nil {
			out = append(out, rec)
		}
	}
	return out
}
