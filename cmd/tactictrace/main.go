// Command tactictrace assembles distributed traces offline from the
// JSONL span files written by tacticd -trace (any role) and tacticget
// -trace: it merges spans from every node by trace ID and renders
// per-trace hop-by-hop waterfalls.
//
//	# merge the fleet's span files and list every assembled trace
//	tactictrace edge.spans core.spans producer.spans client.spans
//
//	# one trace's waterfall
//	tactictrace -trace 9f3a21c4d0e88b17 *.spans
//
//	# the slowest / NACKed traces only
//	tactictrace -slowest 5 *.spans
//	tactictrace -nacked *.spans
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/tactic-icn/tactic/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tactictrace:", err)
		os.Exit(1)
	}
}

// run lists or renders the traces in the span files args name on out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tactictrace", flag.ContinueOnError)
	traceID := fs.String("trace", "", "render one trace's waterfall by hex ID")
	slowest := fs.Int("slowest", 0, "list only the N slowest traces")
	nacked := fs.Bool("nacked", false, "list only NACKed/dropped traces")
	asJSON := fs.Bool("json", false, "emit assembled traces as JSON")
	waterfalls := fs.Bool("v", false, "render a waterfall for every listed trace")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: tactictrace [flags] span-file.jsonl...")
	}

	c := obs.NewCollector()
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		n, err := c.ReadSpans(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Fprintf(os.Stderr, "%s: %d spans\n", path, n)
	}

	if *traceID != "" {
		t := c.Get(obs.ParseHexID(*traceID))
		if t == nil {
			return fmt.Errorf("trace %s not found in the given span files", *traceID)
		}
		if *asJSON {
			return obs.WriteTracesJSON(out, []*obs.Trace{t})
		}
		t.Waterfall(out)
		return nil
	}

	traces := c.Traces()
	switch {
	case *nacked:
		traces = obs.NackedOnly(traces)
	case *slowest > 0:
		obs.SlowestFirst(traces)
		traces = traces[:min(*slowest, len(traces))]
	}
	if *asJSON {
		return obs.WriteTracesJSON(out, traces)
	}
	fmt.Fprintf(out, "%d traces assembled\n", len(traces))
	for _, t := range traces {
		obs.WriteTraceLines(out, t)
		if *waterfalls {
			t.Waterfall(out)
			fmt.Fprintln(out)
		}
	}
	return nil
}
