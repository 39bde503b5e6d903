package main

import (
	"encoding/csv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/tactic-icn/tactic/internal/experiment"
)

func TestParseTopos(t *testing.T) {
	got, err := parseTopos("1, 3,4")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 4 {
		t.Errorf("parsed = %v", got)
	}
	for _, bad := range []string{"", "0", "5", "x", "1,,2"} {
		if _, err := parseTopos(bad); err == nil {
			t.Errorf("parseTopos(%q): expected error", bad)
		}
	}
}

func TestWriteFig5CSV(t *testing.T) {
	dir := t.TempDir()
	res := &experiment.Fig5Result{Cells: []experiment.Fig5Cell{
		{Topology: 1, BFSize: 500, Series: []float64{0.01, math.NaN(), 0.03}},
	}}
	if err := writeFig5CSV(dir, res); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "fig5_topo1_bf500.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // header + 3 points
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][0] != "second" || rows[1][1] != "0.010000" {
		t.Errorf("rows = %v", rows)
	}
	if rows[2][1] != "" {
		t.Errorf("NaN should serialise empty, got %q", rows[2][1])
	}
}

func TestRunInvalidFlags(t *testing.T) {
	if err := run([]string{"-topos", "9"}); err == nil {
		t.Error("invalid topology accepted")
	}
	if err := run([]string{"-not-a-flag"}); err == nil {
		t.Error("unknown flag accepted")
	}
	// The benchmark-snapshot mode is gone (bench/ is the one ledger); its
	// flags must be unknown, not silently start a run.
	for _, removed := range []string{"-bench-out", "-bench-history", "-bench-diff", "-bench-warn"} {
		err := run([]string{removed, "x"})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("run(%s x) = %v, want flag-not-defined error", removed, err)
		}
	}
}
