package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"

	"github.com/tactic-icn/tactic/internal/forwarder"
	"github.com/tactic-icn/tactic/internal/obs"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds; a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	higher bool    // higher is better
	bound  float64 // end-to-end only: the worsening of the median that counts as a regression
}

// endToEnd are the metrics a user of the deployment would see. The rate
// and the allocations come from the loaded phase, latency from the light
// phase, so queueing never hides in a latency figure. Every time-based
// bound is the largest the pipeline accepts: on this host identical code
// spreads by 10-24 % (quartile distance of ten runs) in a disturbed hour,
// see the README. light_p90_us and cpu_us_per_fetch spread by 26 % there
// and are printed without a bound instead.
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"fetch_rate", "1/s", true, 0.25},
	{"light_p50_us", "us", false, 0.25},
	{"allocs_per_fetch", "count", false, 0.02},
	{"alloc_bytes_per_fetch", "B", false, 0.03},
}

// nearestRank is the 1-based rank of the p-quantile (0 < p <= 1) among n
// sorted samples, n at least 1.
func nearestRank(n int, p float64) int {
	return min(max(int(math.Ceil(p*float64(n))), 1), n)
}

// percentile returns the nearest-rank p-quantile of sorted samples, or 0
// when there are none.
func percentile(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[nearestRank(len(sorted), p)-1])
}

// perSecond is count over elapsed, 0 when no time passed.
func perSecond(count uint64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(count) / elapsed.Seconds()
}

// per is a over b, 0 when b is zero.
func per(a float64, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return a / float64(b)
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stages are the latency histograms the edge keeps in its obs registry.
var stages = []string{"decode", "bf_lookup", "verify", "pit_cs", "encode_send"}

// histSnap is a histogram's running sum and count.
type histSnap struct {
	sum   float64
	count uint64
}

func snapHist(h *obs.Histogram) histSnap { return histSnap{h.Sum(), h.Count()} }

// meanMicros is the mean of the observations between two snapshots, in
// microseconds.
func (a histSnap) meanMicros(b histSnap) float64 {
	return per((b.sum-a.sum)*1e6, b.count-a.count)
}

// snapshot is every counter read at a phase boundary. The load generator
// is quiescent at both boundaries (nothing in flight), so differences are
// exact.
type snapshot struct {
	wall       time.Time
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	edge       forwarder.Status
	core       forwarder.Stats
	producer   forwarder.ProducerStats
	fragments  uint64
	stage      map[string]histSnap
	park       histSnap
}

func (r *rig) snapshot() snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	role := obs.L("role", "edge")
	s := snapshot{
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		edge:       r.edge.Status(),
		core:       r.core.Stats(),
		producer:   r.w.producer.Stats(),
		fragments:  r.fragments(),
		stage:      make(map[string]histSnap, len(stages)),
		park:       snapHist(r.edgeReg.Histogram(forwarder.MetricVerifyParkSeconds, nil, role)),
	}
	for _, st := range stages {
		s.stage[st] = snapHist(r.edgeReg.Histogram(forwarder.MetricStageSeconds, nil, role, obs.L("stage", st)))
	}
	s.cpu = processCPU()
	s.wall = time.Now()
	return s
}

// downstream sums the edge's client-side face counters.
func downstream(st forwarder.Status) (framesIn, bytesOut, errs uint64) {
	for _, f := range st.Faces {
		if f.Downstream {
			framesIn += f.Stats.FramesIn
			bytesOut += f.Stats.BytesOut
		}
		errs += f.Stats.Errors
	}
	return
}

// phaseStats is what one timed phase did, as differences of snapshots
// plus the load generator's own counts.
type phaseStats struct {
	counts  opCounts
	lat     []uint32 // sorted latencies of the good operations, ns
	elapsed time.Duration
	cpu     time.Duration

	mallocs, allocBytes                                   uint64
	edgeInterests, edgeCSHits, edgeNACKs, edgeDrops       uint64
	edgeSheds, edgeVerifications                          uint64
	bfLookups, bfInsertions, bfResets                     uint64
	bfFillEnd                                             float64
	coreInterests, producerServed                         uint64
	edgeFramesIn, edgeBytesOut, edgeFaceErrors, fragments uint64
	stageMicros                                           map[string]float64
	parkMicros                                            float64
}

func diff(a, b snapshot, counts opCounts, lat []uint32) phaseStats {
	slices.Sort(lat)
	ec, bc := a.edge.Counters, b.edge.Counters
	ab, bb := a.edge.Bloom, b.edge.Bloom
	aIn, aOut, aErr := downstream(a.edge)
	bIn, bOut, bErr := downstream(b.edge)
	p := phaseStats{
		counts:  counts,
		lat:     lat,
		elapsed: b.wall.Sub(a.wall),
		cpu:     b.cpu - a.cpu,

		mallocs:           b.mallocs - a.mallocs,
		allocBytes:        b.allocBytes - a.allocBytes,
		edgeInterests:     bc.Interests - ec.Interests,
		edgeCSHits:        bc.CSHits - ec.CSHits,
		edgeNACKs:         bc.NACKs - ec.NACKs,
		edgeDrops:         bc.Drops - ec.Drops,
		edgeSheds:         bc.VerifySheds - ec.VerifySheds,
		edgeVerifications: b.edge.Validator.Verifications - a.edge.Validator.Verifications,
		bfLookups:         bb.Lookups - ab.Lookups,
		bfInsertions:      bb.Insertions - ab.Insertions,
		bfResets:          bb.Resets - ab.Resets,
		bfFillEnd:         bb.FillRatio,
		coreInterests:     b.core.Interests - a.core.Interests,
		producerServed:    b.producer.Served - a.producer.Served,
		edgeFramesIn:      bIn - aIn,
		edgeBytesOut:      bOut - aOut,
		edgeFaceErrors:    bErr - aErr,
		fragments:         b.fragments - a.fragments,
		stageMicros:       make(map[string]float64, len(stages)),
		parkMicros:        a.park.meanMicros(b.park),
	}
	for _, st := range stages {
		p.stageMicros[st] = a.stage[st].meanMicros(b.stage[st])
	}
	return p
}

func (p phaseStats) good() uint64              { return p.counts.ops - p.counts.failed }
func (p phaseStats) fetchRate() float64        { return perSecond(p.good(), p.elapsed) }
func (p phaseStats) cpuMicros() float64        { return per(float64(p.cpu.Microseconds()), p.counts.ops) }
func (p phaseStats) csHitRatio() float64       { return per(float64(p.edgeCSHits), p.edgeInterests) }
func (p phaseStats) perFetch(n uint64) float64 { return per(float64(n), p.counts.ops) }

// windowLength is the stretch one sample of a time-based metric covers. A
// phase is cut into windows because this host is shared: for seconds at a
// time the same work costs a fifth more CPU, and a whole-phase mean moves
// with how much of that a run happened to catch.
const windowLength = 500 * time.Millisecond

// timed runs one phase: an untimed warm-up with the same window, then
// consecutive measured windows. It returns the phase as a whole and each
// window.
func (lg *loadgen) timed(window int, warmup, d time.Duration) (phaseStats, []phaseStats, error) {
	if _, _, err := lg.phase(window, warmup); err != nil {
		return phaseStats{}, nil, err
	}
	n := max(int((d+windowLength/2)/windowLength), 1)
	first := lg.r.snapshot()
	prev := first
	var parts []phaseStats
	var total opCounts
	var all []uint32
	for i := 0; i < n; i++ {
		counts, lat, err := lg.phase(window, d/time.Duration(n))
		if err != nil {
			return phaseStats{}, nil, err
		}
		cur := lg.r.snapshot()
		all = append(all, lat...)
		parts = append(parts, diff(prev, cur, counts, lat))
		total.add(counts)
		prev = cur
	}
	return diff(first, prev, total, all), parts, nil
}

// bestDecile is the value a tenth of the windows are at least as good as
// (nearest rank): what the system does when the host leaves it alone.
// Interference only ever slows a window down, so this end of the
// distribution repeats between runs where the mean and the median do not
// (README, "End-to-end metrics", has the measured spreads of all three).
// The price is that a change slowing fewer than nine windows in ten does
// not move it; the whole-phase value printed beside each metric does.
func bestDecile(parts []phaseStats, higher bool, metric func(phaseStats) float64) float64 {
	v := make([]float64, len(parts))
	for i, p := range parts {
		v[i] = metric(p)
	}
	slices.Sort(v)
	rank := nearestRank(len(v), 0.1)
	if higher {
		return v[len(v)-rank]
	}
	return v[rank-1]
}

// violations lists the workload invariants a timed phase broke. They are
// what makes the numbers mean what the README says they mean: a hit
// workload that verifies, or a full-path workload served from the edge
// cache, measures something else.
func (wl workload) violations(phase string, p phaseStats) []string {
	var out []string
	bad := func(format string, args ...any) {
		out = append(out, wl.name+" "+phase+": "+fmt.Sprintf(format, args...))
	}
	if p.counts.ops == 0 {
		bad("no operation completed")
		return out
	}
	// A forged tag is a key the filter has never seen, and a Bloom filter
	// answers "seen" for such a key at its false-positive rate: TACTIC
	// serves those, by design. More than the configured maximum is a bug.
	if allowed := uint64(bfMaxFPP*float64(p.counts.forgedSent)) + 5; p.counts.forgedLeaked > allowed {
		bad("%d of %d forged Interests were served, more than the filter's false-positive rate allows (%d)",
			p.counts.forgedLeaked, p.counts.forgedSent, allowed)
	}
	// The workloads are chosen so that no operation fails: a time-out, a
	// genuine tag NACKed or a reply that is not the published chunk is a
	// defect in the program, not a property of the traffic.
	if p.counts.failed > 0 {
		bad("%d of %d operations failed: %d timed out, %d wrongly NACKed, %d did not match the published chunk",
			p.counts.failed, p.counts.ops, p.counts.timeouts, p.counts.badNACK, p.counts.mismatch)
	}
	if p.fragments > 0 {
		bad("%d datagrams were fragments (Data must fit the MTU)", p.fragments)
	}
	if wl.churn {
		if v := p.perFetch(p.edgeVerifications); v < 0.25 {
			bad("%.3f edge verifications per fetch, want >= 0.25", v)
		}
		if p.bfResets == 0 {
			bad("the edge filter never reset")
		}
		if p.counts.forgedSent == 0 {
			bad("no forged Interest was sent")
		}
	} else if p.edgeVerifications > 0 {
		bad("%d edge verifications, want 0", p.edgeVerifications)
	}
	if wl.scanAll {
		if r := p.csHitRatio(); r > 0.01 {
			bad("edge CS-hit ratio %.4f, want <= 0.01", r)
		}
		if c := p.perFetch(p.coreInterests); c < 0.99 {
			bad("%.4f core Interests per fetch, want >= 0.99", c)
		}
	} else {
		// A forged Interest ends in a NACK, which the edge does not count as
		// a CS hit, so the ratio is only asserted where nothing is forged.
		if r := p.csHitRatio(); !wl.churn && r < 0.999 {
			bad("edge CS-hit ratio %.4f, want >= 0.999", r)
		}
		if p.coreInterests > 0 {
			bad("%d Interests went upstream, want 0", p.coreInterests)
		}
	}
	return out
}
