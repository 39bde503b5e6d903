package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeSeriesAverages(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	ts.Observe(100*time.Millisecond, 2)
	ts.Observe(900*time.Millisecond, 4)
	ts.Observe(1500*time.Millisecond, 10)
	avg := ts.Averages()
	if len(avg) != 2 {
		t.Fatalf("buckets = %d", len(avg))
	}
	if avg[0] != 3 || avg[1] != 10 {
		t.Errorf("averages = %v", avg)
	}
}

func TestTimeSeriesEmptyBucketsNaN(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	ts.Observe(0, 1)
	ts.Observe(2500*time.Millisecond, 5)
	avg := ts.Averages()
	if !math.IsNaN(avg[1]) {
		t.Errorf("empty bucket = %v, want NaN", avg[1])
	}
}

func TestTimeSeriesRatesAndSums(t *testing.T) {
	ts := NewTimeSeries(2 * time.Second)
	ts.Add(0, 1)
	ts.Add(time.Second, 1)
	ts.Add(3*time.Second, 1)
	sums := ts.Sums()
	if sums[0] != 2 || sums[1] != 1 {
		t.Errorf("sums = %v", sums)
	}
}

func TestTimeSeriesAddDoesNotCountSamples(t *testing.T) {
	// A mixed series: Observe records samples, Add folds in extra
	// volume. Add must not register samples, or bucket averages get
	// diluted and Averages/Sums disagree about what happened.
	ts := NewTimeSeries(time.Second)
	ts.Observe(100*time.Millisecond, 10)
	ts.Observe(200*time.Millisecond, 20)
	if got := ts.Averages()[0]; got != 15 {
		t.Errorf("average = %v, want 15", got)
	}
	// An Add-only bucket has volume but no samples: its average must be
	// NaN, not delta/1. The old Add delegated to Observe and registered
	// a phantom sample per call.
	ts.Add(1300*time.Millisecond, 5)
	ts.Add(1600*time.Millisecond, 3)
	if got := ts.Sums()[1]; got != 8 {
		t.Errorf("Add-only bucket sum = %v, want 8", got)
	}
	if got := ts.Averages()[1]; !math.IsNaN(got) {
		t.Errorf("Add-only bucket average = %v, want NaN (Add must not record samples)", got)
	}
}

func TestTimeSeriesNegativeAndZeroBucket(t *testing.T) {
	ts := NewTimeSeries(0) // falls back to 1s
	ts.Observe(-5*time.Second, 7)
	if ts.Len() != 1 || ts.Sums()[0] != 7 {
		t.Error("negative elapsed should clamp to bucket 0")
	}
}

func TestLatency(t *testing.T) {
	var l Latency
	if l.Mean() != 0 || l.Count() != 0 {
		t.Error("zero-value latency should be empty")
	}
	l.Observe(10 * time.Millisecond)
	l.Observe(30 * time.Millisecond)
	l.Observe(20 * time.Millisecond)
	if l.Mean() != 20*time.Millisecond {
		t.Errorf("mean = %v", l.Mean())
	}
	if l.Min() != 10*time.Millisecond || l.Max() != 30*time.Millisecond {
		t.Errorf("min/max = %v/%v", l.Min(), l.Max())
	}
	if l.Count() != 3 {
		t.Errorf("count = %d", l.Count())
	}
}

func TestDelivery(t *testing.T) {
	d := Delivery{Requested: 1000, Received: 999}
	if r := d.Ratio(); r != 0.999 {
		t.Errorf("ratio = %v", r)
	}
	if (Delivery{}).Ratio() != 0 {
		t.Error("empty delivery ratio should be 0")
	}
	d.Merge(Delivery{Requested: 1000, Received: 1})
	if d.Requested != 2000 || d.Received != 1000 {
		t.Errorf("merged = %+v", d)
	}
}

func TestRouterOpsMerge(t *testing.T) {
	a := RouterOps{Lookups: 10, Insertions: 2, Verifications: 1, Resets: 1, ResetRequests: 100, ResetsMerged: 1}
	b := RouterOps{Lookups: 5, Insertions: 3, Verifications: 2, Resets: 2, ResetRequests: 200 + 300, ResetsMerged: 2}
	a.Merge(b)
	if a.Lookups != 15 || a.Insertions != 5 || a.Verifications != 3 || a.Resets != 3 {
		t.Errorf("merged = %+v", a)
	}
	if got := a.MeanResetThreshold(); got != 200 {
		t.Errorf("mean reset threshold = %v", got)
	}
	var empty RouterOps
	if !math.IsNaN(empty.MeanResetThreshold()) {
		t.Error("no resets should give NaN threshold")
	}
}

func TestMeanStd(t *testing.T) {
	mean, std := MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if mean != 5 {
		t.Errorf("mean = %v", mean)
	}
	if std < 2.1 || std > 2.2 { // sample std ≈ 2.138
		t.Errorf("std = %v", std)
	}
	if m, s := MeanStd(nil); m != 0 || s != 0 {
		t.Error("empty MeanStd should be 0,0")
	}
	if _, s := MeanStd([]float64{42}); s != 0 {
		t.Error("single-sample std should be 0")
	}
}

func TestAverageSeries(t *testing.T) {
	got := AverageSeries([][]float64{
		{1, 2, 3},
		{3, 4},
		{2, math.NaN(), 5},
	})
	if got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Errorf("averaged = %v", got)
	}
	if len(AverageSeries(nil)) != 0 {
		t.Error("no runs should give empty series")
	}
	allNaN := AverageSeries([][]float64{{math.NaN()}})
	if !math.IsNaN(allNaN[0]) {
		t.Error("all-NaN bucket should stay NaN")
	}
}

func TestDownsample(t *testing.T) {
	series := make([]float64, 100)
	for i := range series {
		series[i] = float64(i)
	}
	ds := Downsample(series, 10)
	if len(ds) != 10 {
		t.Fatalf("downsampled length = %d", len(ds))
	}
	if ds[0] != 4.5 || ds[9] != 94.5 {
		t.Errorf("downsampled = %v", ds)
	}
	// Short series pass through.
	if got := Downsample([]float64{1, 2}, 10); len(got) != 2 {
		t.Errorf("short series = %v", got)
	}
}

func TestPropertyTimeSeriesTotalPreserved(t *testing.T) {
	f := func(values []uint8) bool {
		ts := NewTimeSeries(time.Second)
		var want float64
		for i, v := range values {
			ts.Add(time.Duration(i)*300*time.Millisecond, float64(v))
			want += float64(v)
		}
		var got float64
		for _, s := range ts.Sums() {
			got += s
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyLatencyMeanBounded(t *testing.T) {
	f := func(samples []uint16) bool {
		if len(samples) == 0 {
			return true
		}
		var l Latency
		for _, s := range samples {
			l.Observe(time.Duration(s))
		}
		return l.Mean() >= l.Min() && l.Mean() <= l.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLatencyMerge(t *testing.T) {
	var a, b Latency
	a.Observe(10 * time.Millisecond)
	a.Observe(20 * time.Millisecond)
	b.Observe(5 * time.Millisecond)
	b.Observe(45 * time.Millisecond)
	a.Merge(b)
	if a.Count() != 4 {
		t.Errorf("count = %d", a.Count())
	}
	if a.Mean() != 20*time.Millisecond {
		t.Errorf("mean = %v", a.Mean())
	}
	if a.Min() != 5*time.Millisecond || a.Max() != 45*time.Millisecond {
		t.Errorf("min/max = %v/%v", a.Min(), a.Max())
	}
	// Merging empties is a no-op in both directions.
	var empty Latency
	a.Merge(empty)
	if a.Count() != 4 {
		t.Error("merging empty changed the aggregate")
	}
	empty.Merge(a)
	if empty.Count() != 4 || empty.Min() != 5*time.Millisecond {
		t.Errorf("merge into empty: %d %v", empty.Count(), empty.Min())
	}
}
