package experiment

import (
	"fmt"
	"time"

	"github.com/tactic-icn/tactic/internal/baseline"
	"github.com/tactic-icn/tactic/internal/metrics"
)

// Options configures a reproduction suite run.
type Options struct {
	// Seeds lists run seeds; results are averaged across them (the
	// paper averages five seeds).
	Seeds []int64
	// Duration is the simulated span per run (the paper uses 2000 s;
	// the default is shorter so the full suite completes in minutes).
	Duration time.Duration
	// Topologies lists the Table III topologies to evaluate.
	Topologies []int
	// Fidelity enables paper-fidelity mode (request-driven Bloom resets,
	// literal delay model); see DESIGN.md.
	Fidelity bool
	// Progress, when non-nil, receives one line per completed run.
	Progress func(format string, args ...any)
}

// withDefaults fills the suite defaults.
func (o Options) withDefaults() Options {
	if len(o.Seeds) == 0 {
		o.Seeds = []int64{1, 2}
	}
	if o.Duration <= 0 {
		o.Duration = 150 * time.Second
	}
	if len(o.Topologies) == 0 {
		o.Topologies = []int{1, 2, 3, 4}
	}
	return o
}

func (o Options) logf(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(format, args...)
	}
}

// Averaged aggregates the per-seed results of one configuration.
type Averaged struct {
	// Runs holds the raw per-seed results.
	Runs []*Result
}

// ClientDelivery returns per-seed-mean requested/received counts.
func (a *Averaged) ClientDelivery() metrics.Delivery { return a.meanDelivery(false) }

// AttackerDelivery returns per-seed-mean attacker counts.
func (a *Averaged) AttackerDelivery() metrics.Delivery { return a.meanDelivery(true) }

func (a *Averaged) meanDelivery(attacker bool) metrics.Delivery {
	var req, recv uint64
	for _, r := range a.Runs {
		d := r.ClientDelivery
		if attacker {
			d = r.AttackerDelivery
		}
		req += d.Requested
		recv += d.Received
	}
	n := uint64(len(a.Runs))
	if n == 0 {
		return metrics.Delivery{}
	}
	return metrics.Delivery{Requested: req / n, Received: recv / n}
}

// MeanLatency returns the mean client retrieval latency across runs.
func (a *Averaged) MeanLatency() time.Duration {
	var sum time.Duration
	var n int
	for _, r := range a.Runs {
		if r.ClientLatency.Count() > 0 {
			sum += r.ClientLatency.Mean()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// LatencySeries returns the seed-averaged per-second latency series.
func (a *Averaged) LatencySeries() []float64 {
	series := make([][]float64, 0, len(a.Runs))
	for _, r := range a.Runs {
		series = append(series, r.LatencySeries)
	}
	return metrics.AverageSeries(series)
}

// EdgeOps and CoreOps return per-seed-mean operation counts.
func (a *Averaged) EdgeOps() metrics.RouterOps { return a.meanOps(false) }

// CoreOps returns per-seed-mean core-router operation counts.
func (a *Averaged) CoreOps() metrics.RouterOps { return a.meanOps(true) }

func (a *Averaged) meanOps(coreOps bool) metrics.RouterOps {
	var total metrics.RouterOps
	for _, r := range a.Runs {
		ops := r.EdgeOps
		if coreOps {
			ops = r.CoreOps
		}
		total.Merge(ops)
	}
	n := uint64(len(a.Runs))
	if n == 0 {
		return total
	}
	total.Lookups /= n
	total.Insertions /= n
	total.Verifications /= n
	total.Resets /= n
	return total
}

// TagRates returns the mean steady-state tag-request (Q) and
// tag-receive (R) rates. The first half of each run is discarded as
// warm-up: at start-up every client performs a first-contact
// registration at every provider it touches regardless of the tag TTL,
// which would mask the TTL-driven renewal rate the paper's Fig. 6
// reports (its 2000 s runs amortise the transient away).
func (a *Averaged) TagRates() (q, r float64) {
	var qs, rs []float64
	for _, run := range a.Runs {
		qs = append(qs, steadyRate(run.TagQPerSec))
		rs = append(rs, steadyRate(run.TagRPerSec))
	}
	qm, _ := metrics.MeanStd(qs)
	rm, _ := metrics.MeanStd(rs)
	return qm, rm
}

// steadyRate averages the second half of a per-second series.
func steadyRate(perSec []float64) float64 {
	if len(perSec) == 0 {
		return 0
	}
	half := perSec[len(perSec)/2:]
	var sum float64
	for _, v := range half {
		sum += v
	}
	return sum / float64(len(half))
}

// Suite runs scenarios with caching, so figures that share a
// configuration (e.g. the BF-500 base matrix feeding Table IV, Fig. 6,
// and Fig. 7) reuse each other's runs.
type Suite struct {
	opts  Options
	cache map[string]*Averaged
}

// NewSuite creates a suite.
func NewSuite(opts Options) *Suite {
	return &Suite{opts: opts.withDefaults(), cache: make(map[string]*Averaged)}
}

// Options returns the effective (defaulted) options.
func (s *Suite) Options() Options { return s.opts }

// run executes one configuration across all seeds, cached.
func (s *Suite) run(key string, sc Scenario, after ...func(*Scenario)) (*Averaged, error) {
	if got, ok := s.cache[key]; ok {
		return got, nil
	}
	sc.Duration = s.opts.Duration
	sc.PaperFidelity = s.opts.Fidelity
	sc = sc.withDefaults()
	for _, mut := range after {
		mut(&sc)
	}
	avg := &Averaged{}
	for _, seed := range s.opts.Seeds {
		sc.Seed = seed
		sc.Name = key
		start := time.Now()
		res, err := runDefaulted(sc)
		if err != nil {
			return nil, fmt.Errorf("experiment %s seed %d: %w", key, seed, err)
		}
		s.opts.logf("  %-42s seed %d  %8d events  %6.1fs wall", key, seed,
			res.Events, time.Since(start).Seconds())
		avg.Runs = append(avg.Runs, res)
	}
	s.cache[key] = avg
	return avg, nil
}

// base runs the Table III base configuration (BF 500, FPP 1e-4, 10 s
// TTL) for one topology.
func (s *Suite) base(topo int) (*Averaged, error) {
	return s.run(fmt.Sprintf("base/topo%d", topo), Scenario{PaperTopology: topo})
}

// --- Fig. 5 -------------------------------------------------------------------

// Fig5BFSizes are the Bloom-filter capacities swept by Fig. 5.
var Fig5BFSizes = []int{500, 2500, 10000}

// Fig5Cell is one (topology, BF size) curve.
type Fig5Cell struct {
	// Topology is the Table III index.
	Topology int
	// BFSize is the filter capacity.
	BFSize int
	// MeanLatency is the run-mean retrieval latency.
	MeanLatency time.Duration
	// Series is the seed-averaged per-second latency (seconds).
	Series []float64
	// EdgeResets is the mean edge Bloom-filter reset count.
	EdgeResets uint64
}

// Fig5Result reproduces Fig. 5: client retrieval latency vs Bloom-filter
// size across topologies.
type Fig5Result struct {
	// Cells holds one entry per (topology, BF size).
	Cells []Fig5Cell
}

// Fig5 runs the Fig. 5 sweep.
func (s *Suite) Fig5() (*Fig5Result, error) {
	out := &Fig5Result{}
	for _, topo := range s.opts.Topologies {
		for _, bf := range Fig5BFSizes {
			var avg *Averaged
			var err error
			if bf == 500 {
				avg, err = s.base(topo)
			} else {
				avg, err = s.run(fmt.Sprintf("fig5/topo%d/bf%d", topo, bf),
					Scenario{PaperTopology: topo, BFCapacity: bf})
			}
			if err != nil {
				return nil, err
			}
			out.Cells = append(out.Cells, Fig5Cell{
				Topology:    topo,
				BFSize:      bf,
				MeanLatency: avg.MeanLatency(),
				Series:      avg.LatencySeries(),
				EdgeResets:  avg.EdgeOps().Resets,
			})
		}
	}
	return out, nil
}

// --- Table IV -----------------------------------------------------------------

// Table4Row is one topology's delivery outcome.
type Table4Row struct {
	// Topology is the Table III index.
	Topology int
	// Client and Attacker are the mean requested/received tallies.
	Client, Attacker metrics.Delivery
	// AttackerByKind splits attacker outcomes per threat (summed over
	// seeds).
	AttackerByKind map[string]metrics.Delivery
}

// Table4Result reproduces Table IV: clients' and attackers' successful
// delivery ratios.
type Table4Result struct {
	// Rows holds one entry per topology.
	Rows []Table4Row
}

// Table4 runs the Table IV matrix.
func (s *Suite) Table4() (*Table4Result, error) {
	out := &Table4Result{}
	for _, topo := range s.opts.Topologies {
		avg, err := s.base(topo)
		if err != nil {
			return nil, err
		}
		byKind := make(map[string]metrics.Delivery)
		for _, run := range avg.Runs {
			for kind, d := range run.AttackerByKind {
				cur := byKind[kind]
				cur.Merge(d)
				byKind[kind] = cur
			}
		}
		out.Rows = append(out.Rows, Table4Row{
			Topology:       topo,
			Client:         avg.ClientDelivery(),
			Attacker:       avg.AttackerDelivery(),
			AttackerByKind: byKind,
		})
	}
	return out, nil
}

// --- Fig. 6 -------------------------------------------------------------------

// Fig6Row is one topology's tag-rate pair.
type Fig6Row struct {
	// Topology is the Table III index.
	Topology int
	// Q and R are the mean tag-request and tag-receive rates per
	// second.
	Q, R float64
}

// Fig6Result reproduces Fig. 6: per-second tag-request (Q) and
// tag-receive (R) rates per topology, plus the inner expiry sweep on
// Topology 1 (10 s vs 100 s TTL).
type Fig6Result struct {
	// Rows holds the main per-topology rates (10 s TTL).
	Rows []Fig6Row
	// TE10 and TE100 are Topology 1's rates at 10 s and 100 s expiry.
	TE10, TE100 Fig6Row
}

// Fig6 runs the Fig. 6 matrix. The expiry sweep uses Topology 1 when it
// is in the configured list (the paper's choice), else the first listed
// topology.
func (s *Suite) Fig6() (*Fig6Result, error) {
	out := &Fig6Result{}
	sweepTopo := s.opts.Topologies[0]
	for _, topo := range s.opts.Topologies {
		if topo == 1 {
			sweepTopo = 1
		}
		avg, err := s.base(topo)
		if err != nil {
			return nil, err
		}
		q, r := avg.TagRates()
		out.Rows = append(out.Rows, Fig6Row{Topology: topo, Q: q, R: r})
	}
	for _, row := range out.Rows {
		if row.Topology == sweepTopo {
			out.TE10 = row
		}
	}
	avg, err := s.run(fmt.Sprintf("fig6/topo%d/ttl100", sweepTopo),
		Scenario{PaperTopology: sweepTopo, TagTTL: 100 * time.Second})
	if err != nil {
		return nil, err
	}
	q, r := avg.TagRates()
	out.TE100 = Fig6Row{Topology: sweepTopo, Q: q, R: r}
	return out, nil
}

// --- Fig. 7 -------------------------------------------------------------------

// Fig7Row is one topology's router operation counts.
type Fig7Row struct {
	// Topology is the Table III index.
	Topology int
	// Edge and Core are mean per-run operation totals across the edge
	// and core router populations.
	Edge, Core metrics.RouterOps
}

// Fig7Result reproduces Fig. 7: Bloom-filter lookups (L), insertions
// (I), and signature verifications (V) at edge and core routers.
type Fig7Result struct {
	// Rows holds one entry per topology.
	Rows []Fig7Row
}

// Fig7 runs the Fig. 7 matrix.
func (s *Suite) Fig7() (*Fig7Result, error) {
	out := &Fig7Result{}
	for _, topo := range s.opts.Topologies {
		avg, err := s.base(topo)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, Fig7Row{
			Topology: topo,
			Edge:     avg.EdgeOps(),
			Core:     avg.CoreOps(),
		})
	}
	return out, nil
}

// --- Fig. 8 -------------------------------------------------------------------

// Fig8FPPs and Fig8TTLs are the swept parameters.
var (
	Fig8FPPs = []float64{1e-4, 1e-2}
	Fig8TTLs = []time.Duration{10 * time.Second, 100 * time.Second, 1000 * time.Second}
)

// Fig8Cell is one (FPP, TTL) reset-threshold measurement on Topology 1.
type Fig8Cell struct {
	// FPP is the maximum false-positive probability.
	FPP float64
	// TTL is the tag expiry period.
	TTL time.Duration
	// EdgeRequestsPerReset and CoreRequestsPerReset are the mean number
	// of requests a filter absorbs before resetting.
	EdgeRequestsPerReset, CoreRequestsPerReset float64
}

// Fig8Result reproduces Fig. 8: requests absorbed per Bloom-filter reset
// under varying FPP and tag expiry.
type Fig8Result struct {
	// Cells holds one entry per (FPP, TTL).
	Cells []Fig8Cell
}

// Fig8 runs the Fig. 8 sweep (Topology 1).
func (s *Suite) Fig8() (*Fig8Result, error) {
	out := &Fig8Result{}
	for _, fpp := range Fig8FPPs {
		for _, ttl := range Fig8TTLs {
			var avg *Averaged
			var err error
			if fpp == 1e-4 && ttl == 10*time.Second {
				avg, err = s.base(1)
			} else {
				avg, err = s.run(fmt.Sprintf("fig8/fpp%g/ttl%s", fpp, ttl),
					Scenario{PaperTopology: 1, BFMaxFPP: fpp, TagTTL: ttl})
			}
			if err != nil {
				return nil, err
			}
			edgeOps := avg.EdgeOps()
			coreOps := avg.CoreOps()
			out.Cells = append(out.Cells, Fig8Cell{
				FPP:                  fpp,
				TTL:                  ttl,
				EdgeRequestsPerReset: edgeOps.MeanResetThreshold(),
				CoreRequestsPerReset: coreOps.MeanResetThreshold(),
			})
		}
	}
	return out, nil
}

// --- Table V ------------------------------------------------------------------

// Table5Sizes and Table5FPPs are the swept parameters.
var (
	Table5Sizes = []int{500, 5000}
	Table5FPPs  = []float64{1e-4, 1e-2}
)

// Table5Cell is one (size, FPP) reset count on Topology 1.
type Table5Cell struct {
	// BFSize is the filter capacity.
	BFSize int
	// FPP is the maximum false-positive probability.
	FPP float64
	// EdgeResets and CoreResets are mean per-run totals.
	EdgeResets, CoreResets uint64
}

// Table5Result reproduces Table V: Bloom-filter reset counts for filter
// size x FPP, with the improvement from growing the filter.
type Table5Result struct {
	// Cells holds one entry per (size, FPP).
	Cells []Table5Cell
}

// Improvement returns the reset reduction (%) from size 500 to 5000 at
// the given FPP, for edge and core routers.
func (t *Table5Result) Improvement(fpp float64) (edge, core float64) {
	var small, big *Table5Cell
	for i := range t.Cells {
		c := &t.Cells[i]
		if c.FPP != fpp {
			continue
		}
		switch c.BFSize {
		case 500:
			small = c
		case 5000:
			big = c
		}
	}
	if small == nil || big == nil {
		return 0, 0
	}
	pct := func(s, b uint64) float64 {
		if s == 0 {
			return 0
		}
		return 100 * (1 - float64(b)/float64(s))
	}
	return pct(small.EdgeResets, big.EdgeResets), pct(small.CoreResets, big.CoreResets)
}

// Table5 runs the Table V sweep (Topology 1, 10 s expiry).
func (s *Suite) Table5() (*Table5Result, error) {
	out := &Table5Result{}
	for _, size := range Table5Sizes {
		for _, fpp := range Table5FPPs {
			var avg *Averaged
			var err error
			if size == 500 && fpp == 1e-4 {
				avg, err = s.base(1)
			} else {
				avg, err = s.run(fmt.Sprintf("table5/bf%d/fpp%g", size, fpp),
					Scenario{PaperTopology: 1, BFCapacity: size, BFMaxFPP: fpp})
			}
			if err != nil {
				return nil, err
			}
			out.Cells = append(out.Cells, Table5Cell{
				BFSize:     size,
				FPP:        fpp,
				EdgeResets: avg.EdgeOps().Resets,
				CoreResets: avg.CoreOps().Resets,
			})
		}
	}
	return out, nil
}

// --- Table II (quantitative baselines) ------------------------------------------

// Table2Row measures one access-control scheme on the common substrate.
type Table2Row struct {
	// Scheme is the access-control design.
	Scheme baseline.Scheme
	// Client and Attacker are mean delivery tallies. For ClientSideAC
	// the attacker deliveries are ciphertext (unusable but
	// bandwidth-wasting).
	Client, Attacker metrics.Delivery
	// AttackerGetsCiphertext reports whether the scheme delivers
	// (undecryptable) ciphertext to attackers — pure bandwidth waste
	// and the DDoS surface the paper's motivation criticises.
	AttackerGetsCiphertext bool
	// MeanLatency is the client retrieval latency.
	MeanLatency time.Duration
	// CacheHitRatio is hits/(hits+misses) across router content stores.
	CacheHitRatio float64
	// ProviderServed counts requests answered by origins.
	ProviderServed uint64
	// RouterVerifications counts signature checks in the network.
	RouterVerifications uint64
}

// Table2Result quantifies the paper's Table II comparison.
type Table2Result struct {
	// Rows holds one entry per scheme.
	Rows []Table2Row
}

// Table2 runs every baseline scheme on Topology 1.
func (s *Suite) Table2() (*Table2Result, error) {
	out := &Table2Result{}
	for _, scheme := range baseline.All() {
		var avg *Averaged
		var err error
		if scheme == baseline.TACTIC {
			avg, err = s.base(1)
		} else {
			avg, err = s.run("table2/"+scheme.String(),
				Scenario{PaperTopology: 1, Baseline: scheme})
		}
		if err != nil {
			return nil, err
		}
		row := Table2Row{
			Scheme:                 scheme,
			Client:                 avg.ClientDelivery(),
			Attacker:               avg.AttackerDelivery(),
			AttackerGetsCiphertext: scheme == baseline.OpenNDN || scheme.CiphertextGated(),
			MeanLatency:            avg.MeanLatency(),
		}
		var hits, misses, served, verifs uint64
		for _, run := range avg.Runs {
			hits += run.CSHits
			misses += run.CSMisses
			verifs += run.EdgeOps.Verifications + run.CoreOps.Verifications
			served += run.ProviderContentServed
		}
		if hits+misses > 0 {
			row.CacheHitRatio = float64(hits) / float64(hits+misses)
		}
		n := uint64(len(avg.Runs))
		row.ProviderServed = served / n
		row.RouterVerifications = verifs / n
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// --- Ablations ------------------------------------------------------------------

// AblationRow measures one disabled mechanism.
type AblationRow struct {
	// Name labels the ablation.
	Name string
	// Client and Attacker are mean delivery tallies.
	Client, Attacker metrics.Delivery
	// MeanLatency is the client retrieval latency.
	MeanLatency time.Duration
	// RouterVerifications counts network signature checks.
	RouterVerifications uint64
}

// AblationResult compares TACTIC with each mechanism disabled
// (DESIGN.md §5).
type AblationResult struct {
	// Rows holds full TACTIC first, then one entry per ablation.
	Rows []AblationRow
}

// Ablations runs the design-choice ablations on Topology 1.
func (s *Suite) Ablations() (*AblationResult, error) {
	configs := []struct {
		name string
		mut  func(*Scenario)
	}{
		{"tactic-full", func(*Scenario) {}},
		{"no-bloom-filter", func(sc *Scenario) { sc.Ablations.DisableBloomFilter = true }},
		{"no-collaboration", func(sc *Scenario) { sc.Ablations.DisableCollaboration = true }},
		{"no-precheck", func(sc *Scenario) { sc.Ablations.DisablePrecheck = true }},
		{"no-auto-reset", func(sc *Scenario) { sc.Ablations.DisableAutoReset = true }},
		{"drop-on-nack", func(sc *Scenario) { sc.DropContentOnNACK = true }},
		// Fidelity mode runs the paper's aggregate pseudocode; this row
		// re-checks aggregates as every other configuration does.
		{"harden-aggregates", func(sc *Scenario) { sc.Ablations.PaperAggregates = false }},
	}
	out := &AblationResult{}
	for _, cfg := range configs {
		var avg *Averaged
		var err error
		if cfg.name == "tactic-full" {
			avg, err = s.base(1)
		} else {
			// Each row's mutation applies after the defaults are filled.
			avg, err = s.run("ablation/"+cfg.name, Scenario{PaperTopology: 1}, cfg.mut)
		}
		if err != nil {
			return nil, err
		}
		var verifs uint64
		for _, run := range avg.Runs {
			verifs += run.EdgeOps.Verifications + run.CoreOps.Verifications
		}
		out.Rows = append(out.Rows, AblationRow{
			Name:                cfg.name,
			Client:              avg.ClientDelivery(),
			Attacker:            avg.AttackerDelivery(),
			MeanLatency:         avg.MeanLatency(),
			RouterVerifications: verifs / uint64(len(avg.Runs)),
		})
	}
	return out, nil
}
