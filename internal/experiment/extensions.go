package experiment

import (
	"fmt"
	"io"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/metrics"
)

// ExtensionsResult measures the features beyond the paper's evaluation:
// its §9 future work (traitor tracing, mobility is exercised by tests
// and examples) and the §6 threat discussions (colluding routers,
// malicious-provider DoS).
type ExtensionsResult struct {
	// TraitorSuspects is the number of client keys flagged under
	// sustained tag sharing; TraitorMismatches the evidence volume.
	TraitorSuspects   int
	TraitorMismatches uint64

	// CollusionHonest/CollusionOne/CollusionAll are attacker deliveries
	// with 0, 1, and all edge routers compromised (threat (f)).
	CollusionHonest, CollusionOne, CollusionAll metrics.Delivery

	// DoSBaselineQ and DoSAttackQ are tag-request rates without and
	// with one provider issuing 1 s tags (§6.B low-rate DoS).
	DoSBaselineQ, DoSAttackQ float64
	// DoSClientRate is client delivery under the DoS.
	DoSClientRate float64
}

// Extensions runs the extension scenarios on Topology 1.
func (s *Suite) Extensions() (*ExtensionsResult, error) {
	out := &ExtensionsResult{}

	// Traitor tracing under pure tag-sharing attack.
	avg, err := s.run("ext/traitor", Scenario{
		PaperTopology: 1,
		AttackerMix:   []AttackerKind{AttackSharedTag},
	})
	if err != nil {
		return nil, err
	}
	// Re-run one seed with the detector enabled (the detector changes
	// no forwarding behaviour, only observation).
	det, err := s.run("ext/traitor-detect", Scenario{
		PaperTopology:    1,
		AttackerMix:      []AttackerKind{AttackSharedTag},
		TraitorThreshold: 10,
	})
	if err != nil {
		return nil, err
	}
	for _, run := range det.Runs {
		if len(run.TraitorSuspects) > out.TraitorSuspects {
			out.TraitorSuspects = len(run.TraitorSuspects)
		}
		out.TraitorMismatches += run.Drops[core.ReasonLabel(core.ErrAccessPathMismatch)]
	}
	_ = avg

	// Colluding edges (threat (f)).
	collude := func(key string, edges int) (metrics.Delivery, error) {
		avg, err := s.run(key, Scenario{
			PaperTopology:  1,
			AttackerMix:    []AttackerKind{AttackExpiredTag},
			ColludingEdges: edges,
		})
		if err != nil {
			return metrics.Delivery{}, err
		}
		return avg.AttackerDelivery(), nil
	}
	if out.CollusionHonest, err = collude("ext/collude-0", 0); err != nil {
		return nil, err
	}
	if out.CollusionOne, err = collude("ext/collude-1", 1); err != nil {
		return nil, err
	}
	if out.CollusionAll, err = collude("ext/collude-all", 20); err != nil {
		return nil, err
	}

	// Malicious-provider low-rate DoS.
	base, err := s.base(1)
	if err != nil {
		return nil, err
	}
	out.DoSBaselineQ, _ = base.TagRates()
	dos, err := s.run("ext/short-ttl-dos", Scenario{
		PaperTopology:     1,
		ShortTTLProviders: 1,
		ShortTTL:          time.Second,
	})
	if err != nil {
		return nil, err
	}
	out.DoSAttackQ, _ = dos.TagRates()
	out.DoSClientRate = dos.ClientDelivery().Ratio()
	return out, nil
}

// Format renders the extensions summary.
func (r *ExtensionsResult) Format(w io.Writer) {
	fmt.Fprintln(w, "Extensions — the paper's §9 future work and §6 threat discussions, measured")
	tw := newTab(w)
	fmt.Fprintln(tw, "extension\tresult")
	fmt.Fprintf(tw, "traitor tracing\t%d suspect(s) flagged from %d access-path mismatches (shared-tag attack)\n",
		r.TraitorSuspects, r.TraitorMismatches)
	fmt.Fprintf(tw, "colluding edges (threat f)\thonest %s — one edge %s — all edges %s (attacker deliveries)\n",
		fmtRatio(r.CollusionHonest), fmtRatio(r.CollusionOne), fmtRatio(r.CollusionAll))
	fmt.Fprintf(tw, "short-TTL provider DoS\tQ %.2f/s -> %.2f/s; client delivery stays %.4f\n",
		r.DoSBaselineQ, r.DoSAttackQ, r.DoSClientRate)
	tw.Flush()
}
