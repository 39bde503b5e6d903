package main

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// quartiles are the cut points Python's statistics.quantiles(v, n=4)
// gives (the exclusive method), which is what the pipeline's driver
// computes its spreads from. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// runRepeat is the A/A mode: the same code measured n times in one
// invocation, on seeds seed, seed+1, ... For each workload and end-to-end
// metric it prints every run, the median, the quartiles, the quartile
// distance and the range as shares of the median, beside the metric's
// bound; it fails when the medians of the first and second half of the
// runs differ by more than the bound, which identical code must not do.
func runRepeat(selected []workload, seed int64, seconds, n int, stdout io.Writer) error {
	runs := make(map[string][]*result)
	for k := 0; k < n; k++ {
		for _, wl := range selected {
			res, err := runUntraced(wl, seed+int64(k), seconds)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", wl.name, k+1, err)
			}
			fmt.Fprintf(stdout, "run %d/%d ", k+1, n)
			res.print(stdout)
			if !res.Correct {
				return fmt.Errorf("%s run %d broke a correctness check or invariant", wl.name, k+1)
			}
			runs[wl.name] = append(runs[wl.name], res)
		}
	}

	fmt.Fprintf(stdout, "\nA/A over %d runs, seeds %d..%d, %d s measured per run (%s)\n",
		n, seed, seed+int64(n)-1, seconds, runs[selected[0].name][0].Provenance.CPUModel)
	fmt.Fprintf(stdout, "| workload | metric | unit | median | q1 | q3 | (q3-q1)/median | (max-min)/median | halves | bound | runs |\n")
	fmt.Fprintf(stdout, "|---|---|---|---|---|---|---|---|---|---|---|\n")
	var disagree []string
	for _, wl := range selected {
		for _, def := range endToEnd {
			var v []float64
			for _, res := range runs[wl.name] {
				v = append(v, res.Metrics[def.name])
			}
			q1, q2, q3 := quartiles(v)
			halves := math.Abs(median(v[n/2:])-median(v[:n/2])) / median(v[:n/2])
			if halves > def.bound {
				disagree = append(disagree, fmt.Sprintf("%s %s: halves differ by %.1f%%, bound %.0f%%",
					wl.name, def.name, 100*halves, 100*def.bound))
			}
			each := ""
			for _, x := range v {
				each += fmt.Sprintf(" %.5g", x)
			}
			fmt.Fprintf(stdout, "| %s | %s | %s | %.5g | %.5g | %.5g | %.1f%% | %.1f%% | %.1f%% | %.0f%% |%s |\n",
				wl.name, def.name, def.unit, q2, q1, q3, 100*(q3-q1)/q2,
				100*(slices.Max(v)-slices.Min(v))/q2, 100*halves, 100*def.bound, each)
		}
	}
	if len(disagree) > 0 {
		for _, d := range disagree {
			fmt.Fprintln(stdout, "DISAGREE", d)
		}
		return fmt.Errorf("%d metrics differ between the halves of an A/A run by more than their bound", len(disagree))
	}
	return nil
}
