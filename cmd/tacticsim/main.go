// Command tacticsim runs a single TACTIC simulation scenario and prints
// a full report: delivery ratios, latency, tag rates, router operation
// counts, drop reasons, and per-threat attacker outcomes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"github.com/tactic-icn/tactic/internal/baseline"
	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/experiment"
	"github.com/tactic-icn/tactic/internal/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tacticsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tacticsim", flag.ContinueOnError)
	topo := fs.Int("topo", 1, "Table III topology (1-4)")
	seed := fs.Int64("seed", 1, "run seed")
	duration := fs.Duration("duration", 200*time.Second, "simulated time")
	bfSize := fs.Int("bf", 500, "Bloom-filter capacity")
	bfFPP := fs.Float64("fpp", 1e-4, "Bloom-filter max FPP")
	ttl := fs.Duration("ttl", 10*time.Second, "tag expiry period")
	fidelity := fs.Bool("fidelity", true, "paper-fidelity mode")
	ecdsa := fs.Bool("ecdsa", false, "use real ECDSA P-256 signatures")
	scheme := fs.String("scheme", "tactic", "access-control scheme: tactic|ibac|open-ndn|client-side-ac|provider-auth-ac")
	traceEvery := fs.Int("trace-every", 0, "trace every Nth client request and report per-hop latency decomposition (0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	sc := experiment.Scenario{
		Name:          fmt.Sprintf("tacticsim/topo%d", *topo),
		PaperTopology: *topo,
		Seed:          *seed,
		Duration:      *duration,
		BFCapacity:    *bfSize,
		BFMaxFPP:      *bfFPP,
		TagTTL:        *ttl,
		PaperFidelity: *fidelity,
		UseECDSA:      *ecdsa,
		TraceEvery:    *traceEvery,
	}
	switch *scheme {
	case "tactic":
		sc.Baseline = baseline.TACTIC
	case "ibac":
		// IBAC runs on the TACTIC substrate with the enforcement engine
		// swapped: every router authorizes (token, name) pairs.
		sc.Baseline = baseline.TACTIC
		sc.Ablations.Scheme = core.SchemeIBAC
	case "open-ndn":
		sc.Baseline = baseline.OpenNDN
	case "client-side-ac":
		sc.Baseline = baseline.ClientSideAC
	case "provider-auth-ac":
		sc.Baseline = baseline.ProviderAuthAC
	default:
		return fmt.Errorf("unknown scheme %q", *scheme)
	}

	start := time.Now()
	res, err := experiment.Run(sc)
	if err != nil {
		return err
	}
	wall := time.Since(start)

	fmt.Fprintf(out, "TACTIC simulation — topology %d, seed %d, %s simulated (%s wall, %d events)\n\n",
		*topo, *seed, *duration, wall.Round(time.Millisecond), res.Events)
	schemeLabel := sc.Baseline.String()
	if sc.Ablations.Scheme != core.SchemeTACTIC {
		schemeLabel = sc.Ablations.Scheme.String()
	}
	fmt.Fprintf(out, "scheme: %s   BF capacity %d @ max FPP %g   tag TTL %s   fidelity %v\n\n",
		schemeLabel, *bfSize, *bfFPP, *ttl, *fidelity)

	printDelivery := func(label string, d metrics.Delivery) {
		fmt.Fprintf(out, "%-10s requested %9d   received %9d   delivery rate %.4f\n",
			label, d.Requested, d.Received, d.Ratio())
	}
	printDelivery("clients", res.ClientDelivery)
	printDelivery("attackers", res.AttackerDelivery)
	fmt.Fprintln(out)

	fmt.Fprintf(out, "client latency: mean %s  min %s  max %s  (%d samples)\n",
		res.ClientLatency.Mean().Round(10*time.Microsecond),
		res.ClientLatency.Min().Round(10*time.Microsecond),
		res.ClientLatency.Max().Round(10*time.Microsecond),
		res.ClientLatency.Count())
	fmt.Fprintf(out, "tag rates: Q %.2f/s  R %.2f/s   registrations issued %d, dropped %d\n\n",
		res.TagQRate(), res.TagRRate(), res.RegistrationsIssued, res.RegistrationsFailed)

	fmt.Fprintf(out, "router ops      %12s %12s %12s %8s\n", "lookups", "insertions", "verifications", "resets")
	fmt.Fprintf(out, "  edge routers  %12d %12d %12d %8d\n",
		res.EdgeOps.Lookups, res.EdgeOps.Insertions, res.EdgeOps.Verifications, res.EdgeOps.Resets)
	fmt.Fprintf(out, "  core routers  %12d %12d %12d %8d\n",
		res.CoreOps.Lookups, res.CoreOps.Insertions, res.CoreOps.Verifications, res.CoreOps.Resets)
	fmt.Fprintf(out, "  providers: served %d, verifications %d\n\n", res.ProviderContentServed, res.ProviderVerifications)

	hitRatio := 0.0
	if res.CSHits+res.CSMisses > 0 {
		hitRatio = float64(res.CSHits) / float64(res.CSHits+res.CSMisses)
	}
	fmt.Fprintf(out, "content store: hits %d, misses %d (hit ratio %.3f)\n\n", res.CSHits, res.CSMisses, hitRatio)

	if len(res.AttackerByKind) > 0 {
		fmt.Fprintln(out, "attacker outcomes by threat scenario:")
		kinds := make([]string, 0, len(res.AttackerByKind))
		for k := range res.AttackerByKind {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			d := res.AttackerByKind[k]
			fmt.Fprintf(out, "  %-14s requested %7d  received %5d  rate %.4f\n", k, d.Requested, d.Received, d.Ratio())
		}
		fmt.Fprintln(out)
	}

	if len(res.Drops) > 0 {
		fmt.Fprintln(out, "router drops by reason:")
		reasons := make([]string, 0, len(res.Drops))
		for r := range res.Drops {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		for _, r := range reasons {
			fmt.Fprintf(out, "  %-24s %d\n", r, res.Drops[r])
		}
		fmt.Fprintln(out)
	}

	if len(res.HopDecomp) > 0 {
		experiment.FormatHopDecomp(out, res.HopDecomp, res.TracesAssembled)
	}
	return nil
}
