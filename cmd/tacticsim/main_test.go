package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// wallToken is the one non-deterministic token in a report.
var wallToken = regexp.MustCompile(`\([^ ]+ wall,`)

// TestRunShortSimulation is the standing "the sim did not move" check:
// the full report of a short fixed-seed run must match the committed
// golden byte for byte, wall time masked. A change that means to move
// the sim regenerates it with `go test ./cmd/tacticsim -update` and
// explains the diff.
func TestRunShortSimulation(t *testing.T) {
	checkGolden(t, "testdata/topo1_10s_seed1.golden", "-topo", "1", "-duration", "10s", "-seed", "1")
}

// TestRunTracedSimulation pins the traced sim the same way: every 4th
// client request head-sampled, the hop spans assembled into traces, and
// the per-hop latency decomposition appended to the report. Tracing is
// observation only, so the lines above the decomposition match the
// untraced golden's.
func TestRunTracedSimulation(t *testing.T) {
	checkGolden(t, "testdata/topo1_10s_seed1_trace4.golden",
		"-topo", "1", "-duration", "10s", "-seed", "1", "-trace-every", "4")
}

// checkGolden runs tacticsim with args and compares its report, wall
// time masked, with the golden file.
func checkGolden(t *testing.T, golden string, args ...string) {
	t.Helper()
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	got := wallToken.ReplaceAll(out.Bytes(), []byte("(<wall> wall,"))
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report differs from %s (regenerate with -update if the sim was meant to move)\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

func TestRunBaselineScheme(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	if err := run([]string{"-topo", "1", "-duration", "5s", "-scheme", "open-ndn"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-scheme", "bogus"}, io.Discard); err == nil {
		t.Error("unknown scheme accepted")
	}
	if err := run([]string{"-topo", "9", "-duration", "1s"}, io.Discard); err == nil {
		t.Error("invalid topology accepted")
	}
	if err := run([]string{"-not-a-flag"}, io.Discard); err == nil {
		t.Error("unknown flag accepted")
	}
}
