// Command tacticbench regenerates every table and figure of the TACTIC
// paper's evaluation (§8): Fig. 5 (latency vs Bloom-filter size),
// Table IV (client/attacker delivery), Fig. 6 (tag rates), Fig. 7
// (router operations), Fig. 8 (requests per Bloom-filter reset),
// Table V (reset counts), plus the quantified Table II baseline
// comparison and the DESIGN.md ablations.
//
// Defaults run a reduced matrix (150 s simulated, 2 seeds) that finishes
// in minutes; pass -duration 2000s -seeds 5 for the paper's full scale.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/tactic-icn/tactic/internal/experiment"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tacticbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tacticbench", flag.ContinueOnError)
	duration := fs.Duration("duration", 150*time.Second, "simulated time per run (paper: 2000s)")
	seeds := fs.Int("seeds", 2, "number of seeds to average (paper: 5)")
	topos := fs.String("topos", "1,2,3,4", "comma-separated Table III topologies")
	fidelity := fs.Bool("fidelity", true, "paper-fidelity mode (request-driven BF resets, literal delay model)")
	only := fs.String("only", "", "run a single experiment: fig5|fig6|fig7|fig8|table2|table4|table5|ablations|extensions")
	csvDir := fs.String("csv", "", "also write full per-second series as CSV files into this directory")
	quiet := fs.Bool("q", false, "suppress per-run progress")
	if err := fs.Parse(args); err != nil {
		return err
	}

	topoList, err := parseTopos(*topos)
	if err != nil {
		return err
	}
	seedList := make([]int64, 0, *seeds)
	for i := 1; i <= *seeds; i++ {
		seedList = append(seedList, int64(i))
	}
	opts := experiment.Options{
		Seeds:      seedList,
		Duration:   *duration,
		Topologies: topoList,
		Fidelity:   *fidelity,
	}
	if !*quiet {
		opts.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	suite := experiment.NewSuite(opts)

	fmt.Printf("TACTIC reproduction suite — duration %s, seeds %d, topologies %v, fidelity %v\n\n",
		*duration, *seeds, topoList, *fidelity)

	experiments := []struct {
		name string
		run  func() error
	}{
		{"table4", func() error { return formatted(suite.Table4) }},
		{"fig5", func() error {
			res, err := suite.Fig5()
			if err != nil {
				return err
			}
			res.Format(os.Stdout)
			if *csvDir != "" {
				if err := writeFig5CSV(*csvDir, res); err != nil {
					return err
				}
			}
			return nil
		}},
		{"fig6", func() error { return formatted(suite.Fig6) }},
		{"fig7", func() error { return formatted(suite.Fig7) }},
		{"fig8", func() error { return formatted(suite.Fig8) }},
		{"table5", func() error { return formatted(suite.Table5) }},
		{"table2", func() error { return formatted(suite.Table2) }},
		{"ablations", func() error { return formatted(suite.Ablations) }},
		{"extensions", func() error { return formatted(suite.Extensions) }},
	}
	known := false
	for _, e := range experiments {
		if *only != "" && e.name != *only {
			continue
		}
		known = true
		if err := e.run(); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Println()
	}
	if !known {
		return fmt.Errorf("unknown experiment %q", *only)
	}
	return nil
}

// formatted runs one experiment and prints its result.
func formatted[T interface{ Format(w io.Writer) }](run func() (T, error)) error {
	res, err := run()
	if err != nil {
		return err
	}
	res.Format(os.Stdout)
	return nil
}

// writeFig5CSV writes one CSV per (topology, BF size) latency series.
func writeFig5CSV(dir string, res *experiment.Fig5Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, c := range res.Cells {
		path := filepath.Join(dir, fmt.Sprintf("fig5_topo%d_bf%d.csv", c.Topology, c.BFSize))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		w := csv.NewWriter(f)
		if err := w.Write([]string{"second", "avg_latency_s"}); err != nil {
			f.Close()
			return err
		}
		for i, v := range c.Series {
			val := ""
			if !math.IsNaN(v) {
				val = strconv.FormatFloat(v, 'f', 6, 64)
			}
			if err := w.Write([]string{strconv.Itoa(i), val}); err != nil {
				f.Close()
				return err
			}
		}
		w.Flush()
		if err := w.Error(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	return nil
}

// parseTopos parses "1,2,3".
func parseTopos(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 1 || n > 4 {
			return nil, fmt.Errorf("invalid topology %q (want 1-4)", p)
		}
		out = append(out, n)
	}
	return out, nil
}
