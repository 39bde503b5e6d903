// Package metrics implements the measurement machinery behind the
// paper's evaluation (§8): per-second time series (Fig. 5's per-second
// average latency, Fig. 6's tag rates), streaming latency statistics,
// delivery ratios (Table IV), router operation counters (Fig. 7,
// Table V), and multi-run averaging (the paper averages five seeds per
// topology).
package metrics

import (
	"math"
	"time"
)

// TimeSeries accumulates observations into fixed-width time buckets.
// Observe records a value (bucket averages answer "average latency per
// second"); Add accumulates counts (bucket sums answer "tags requested
// per second").
type TimeSeries struct {
	bucket time.Duration
	sums   []float64
	counts []uint64
}

// NewTimeSeries creates a series with the given bucket width; the paper
// uses one-second buckets.
func NewTimeSeries(bucket time.Duration) *TimeSeries {
	if bucket <= 0 {
		bucket = time.Second
	}
	return &TimeSeries{bucket: bucket}
}

// indexFor grows the series to cover elapsed and returns its bucket.
func (ts *TimeSeries) indexFor(elapsed time.Duration) int {
	if elapsed < 0 {
		elapsed = 0
	}
	idx := int(elapsed / ts.bucket)
	for len(ts.sums) <= idx {
		ts.sums = append(ts.sums, 0)
		ts.counts = append(ts.counts, 0)
	}
	return idx
}

// Observe records one sample at the given elapsed time.
func (ts *TimeSeries) Observe(elapsed time.Duration, value float64) {
	idx := ts.indexFor(elapsed)
	ts.sums[idx] += value
	ts.counts[idx]++
}

// Add accumulates a delta into the bucket sum without recording a
// sample, so event-count series (Sums) stay correct when a single
// event carries a multi-unit delta, and Averages still reflects only
// Observe'd samples.
func (ts *TimeSeries) Add(elapsed time.Duration, delta float64) {
	ts.sums[ts.indexFor(elapsed)] += delta
}

// Len returns the number of buckets.
func (ts *TimeSeries) Len() int { return len(ts.sums) }

// Averages returns per-bucket means; empty buckets yield NaN so
// downstream plotting can distinguish "no data" from zero.
func (ts *TimeSeries) Averages() []float64 {
	out := make([]float64, len(ts.sums))
	for i := range ts.sums {
		if ts.counts[i] == 0 {
			out[i] = math.NaN()
		} else {
			out[i] = ts.sums[i] / float64(ts.counts[i])
		}
	}
	return out
}

// Sums returns per-bucket totals.
func (ts *TimeSeries) Sums() []float64 {
	out := make([]float64, len(ts.sums))
	copy(out, ts.sums)
	return out
}

// Latency is a streaming latency aggregate.
type Latency struct {
	count uint64
	sum   time.Duration
	min   time.Duration
	max   time.Duration
}

// Observe records one latency sample.
func (l *Latency) Observe(d time.Duration) {
	if l.count == 0 || d < l.min {
		l.min = d
	}
	if d > l.max {
		l.max = d
	}
	l.count++
	l.sum += d
}

// Count returns the number of samples.
func (l *Latency) Count() uint64 { return l.count }

// Merge folds another aggregate into this one exactly.
func (l *Latency) Merge(o Latency) {
	if o.count == 0 {
		return
	}
	if l.count == 0 || o.min < l.min {
		l.min = o.min
	}
	if o.max > l.max {
		l.max = o.max
	}
	l.count += o.count
	l.sum += o.sum
}

// Mean returns the average latency (0 with no samples).
func (l *Latency) Mean() time.Duration {
	if l.count == 0 {
		return 0
	}
	return l.sum / time.Duration(l.count)
}

// Min returns the smallest sample (0 with no samples).
func (l *Latency) Min() time.Duration { return l.min }

// Max returns the largest sample.
func (l *Latency) Max() time.Duration { return l.max }

// Delivery tracks requested vs successfully received chunks — Table IV's
// "Requested Chunk" / "Received Chunk" / "Delivery Rate" rows, kept
// separately for clients and attackers.
type Delivery struct {
	// Requested counts chunks asked for.
	Requested uint64
	// Received counts chunks successfully delivered.
	Received uint64
}

// Ratio returns Received/Requested (0 when nothing was requested).
func (d Delivery) Ratio() float64 {
	if d.Requested == 0 {
		return 0
	}
	return float64(d.Received) / float64(d.Requested)
}

// Merge adds another delivery tally.
func (d *Delivery) Merge(o Delivery) {
	d.Requested += o.Requested
	d.Received += o.Received
}

// RouterOps aggregates the three router operations of Fig. 7 plus
// Bloom-filter resets (Table V) and the per-reset request thresholds
// (Fig. 8).
type RouterOps struct {
	// Lookups is Fig. 7's L series.
	Lookups uint64
	// Insertions is Fig. 7's I series.
	Insertions uint64
	// Verifications is Fig. 7's V series.
	Verifications uint64
	// Resets is Table V's reset count.
	Resets uint64
	// ResetRequests sums the requests absorbed per reset over every reset
	// merged (Fig. 8), and ResetsMerged counts those resets: unlike
	// Resets, it is never divided by a seed count, so their quotient is
	// the mean over every reset.
	ResetRequests uint64
	ResetsMerged  uint64
}

// Merge accumulates another router's operations.
func (r *RouterOps) Merge(o RouterOps) {
	r.Lookups += o.Lookups
	r.Insertions += o.Insertions
	r.Verifications += o.Verifications
	r.Resets += o.Resets
	r.ResetRequests += o.ResetRequests
	r.ResetsMerged += o.ResetsMerged
}

// MeanResetThreshold returns the average number of requests absorbed per
// reset (NaN with no resets).
func (r *RouterOps) MeanResetThreshold() float64 {
	if r.ResetsMerged == 0 {
		return math.NaN()
	}
	return float64(r.ResetRequests) / float64(r.ResetsMerged)
}

// MeanStd returns the mean and sample standard deviation of values.
func MeanStd(values []float64) (mean, std float64) {
	if len(values) == 0 {
		return 0, 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	mean = sum / float64(len(values))
	if len(values) < 2 {
		return mean, 0
	}
	var varSum float64
	for _, v := range values {
		d := v - mean
		varSum += d * d
	}
	return mean, math.Sqrt(varSum / float64(len(values)-1))
}

// AverageSeries element-wise averages several runs' series, ignoring
// NaNs and ragged tails — the paper's five-seed averaging.
func AverageSeries(runs [][]float64) []float64 {
	maxLen := 0
	for _, r := range runs {
		if len(r) > maxLen {
			maxLen = len(r)
		}
	}
	out := make([]float64, maxLen)
	for i := 0; i < maxLen; i++ {
		var sum float64
		var n int
		for _, r := range runs {
			if i < len(r) && !math.IsNaN(r[i]) {
				sum += r[i]
				n++
			}
		}
		if n == 0 {
			out[i] = math.NaN()
		} else {
			out[i] = sum / float64(n)
		}
	}
	return out
}

// Downsample reduces a series to at most n points by averaging
// consecutive windows (ignoring NaNs) — used to print figure series
// compactly.
func Downsample(series []float64, n int) []float64 {
	if n <= 0 || len(series) <= n {
		out := make([]float64, len(series))
		copy(out, series)
		return out
	}
	out := make([]float64, 0, n)
	window := float64(len(series)) / float64(n)
	for i := 0; i < n; i++ {
		lo := int(float64(i) * window)
		hi := int(float64(i+1) * window)
		if hi > len(series) {
			hi = len(series)
		}
		var sum float64
		var cnt int
		for _, v := range series[lo:hi] {
			if !math.IsNaN(v) {
				sum += v
				cnt++
			}
		}
		if cnt == 0 {
			out = append(out, math.NaN())
		} else {
			out = append(out, sum/float64(cnt))
		}
	}
	return out
}
