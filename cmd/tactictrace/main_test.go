package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/tactic-icn/tactic/internal/obs"
)

// writeSpans writes span lines, as a tracer's -trace output holds them,
// to a JSONL file and returns its path.
func writeSpans(t *testing.T, name string, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// span renders one span line: a hop of trace on node, starting at startUs
// and lasting durUs.
func span(node, trace string, hop int, startUs, durUs int64, outcome string) string {
	return fmt.Sprintf(`{"node":%q,"kind":"interest","name":"/prov0/%s","trace":%q,"hop":%d,"ts_ns":%d,"dur_us":%d,"outcome":%q}`,
		node, trace, trace, hop, startUs*1000, durUs, outcome)
}

// TestRun lists traces merged from two nodes' span files: every trace
// most recent first, the slowest, the NACKed, and the JSON document.
func TestRun(t *testing.T) {
	edge := writeSpans(t, "edge.spans",
		span("edge-0", "a1", 0, 0, 100, "forwarded"),
		span("edge-0", "b2", 0, 1000, 500, "nack:forged"),
		span("edge-0", "c3", 0, 2000, 10, "cs_hit"))
	core := writeSpans(t, "core.spans", span("core-0", "a1", 1, 10, 50, "cs_hit"))
	list := func(flags ...string) []string {
		t.Helper()
		var out bytes.Buffer
		if err := run(append(flags, edge, core), &out); err != nil {
			t.Fatalf("run %v: %v", flags, err)
		}
		return strings.Split(strings.TrimSpace(out.String()), "\n")
	}
	ids := func(lines []string) string {
		var got []string
		for _, l := range lines[1:] {
			got = append(got, strings.Fields(strings.TrimPrefix(l, "trace="))[0])
		}
		return strings.Join(got, " ")
	}

	all := list()
	if all[0] != "3 traces assembled" || ids(all) != "c3 b2 a1" {
		t.Errorf("trace list:\n%s", strings.Join(all, "\n"))
	}
	if !strings.Contains(all[3], "hops=2 spans=2") || !strings.Contains(all[3], "outcome=cs_hit") {
		t.Errorf("a1 is not merged across the two files: %s", all[3])
	}
	if got := list("-slowest", "1"); got[0] != "1 traces assembled" || ids(got) != "b2" {
		t.Errorf("-slowest 1:\n%s", strings.Join(got, "\n"))
	}
	if got := list("-nacked"); ids(got) != "b2" {
		t.Errorf("-nacked:\n%s", strings.Join(got, "\n"))
	}

	var out bytes.Buffer
	if err := run([]string{"-json", edge, core}, &out); err != nil {
		t.Fatal(err)
	}
	var doc []struct {
		Trace   string `json:"trace"`
		Hops    int    `json:"hops"`
		DurUs   int64  `json:"dur_us"`
		Outcome string `json:"outcome"`
		Spans   []obs.SpanRecord
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc) != 3 || doc[2].Trace != "a1" || doc[2].Hops != 2 || doc[2].DurUs != 100 || len(doc[2].Spans) != 2 || doc[1].Outcome != "nack:forged" {
		t.Errorf("-json: %+v", doc)
	}
}
