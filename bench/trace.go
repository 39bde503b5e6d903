package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/obs"
)

// span is one timed call the benchmark made: name, start, end, parent, and
// the ID of the operation it belongs to. The spans of one operation share
// Op; a root span has Parent 0.
type span struct {
	name   string
	op     uint64
	id     uint64
	parent uint64
	start  int64 // ns since the log's epoch
	end    int64
	ok     bool
}

// spanLog keeps spans in memory until the traced run ends. Each load
// connection and the replay append to their own slice, so recording takes
// no lock.
type spanLog struct {
	epoch time.Time
	lanes []*[]span // lane 0 is the replay's, lane i+1 connection i's
}

func newSpanLog(lanes int) *spanLog {
	l := &spanLog{epoch: time.Now()}
	for i := 0; i < lanes; i++ {
		s := make([]span, 0, 1<<16)
		l.lanes = append(l.lanes, &s)
	}
	return l
}

// opID is the operation's identifier: it is also the trace ID the
// Interest carries on the wire, so node spans of the same operation (in
// the nodes' flight recorders) share it.
func (l *spanLog) opID(lane int, op uint64) uint64 { return uint64(lane)<<48 | op }

func (l *spanLog) add(lane int, op uint64, name string, start, end time.Time) {
	id := l.opID(lane, op)
	s := l.lanes[lane]
	*s = append(*s, span{name: name, op: id, id: uint64(lane)<<48 | 1<<47 | uint64(len(*s)), parent: id,
		start: int64(start.Sub(l.epoch)), end: int64(end.Sub(l.epoch)), ok: true})
}

func (l *spanLog) addRoot(lane int, op uint64, start, end time.Time, ok bool) {
	id := l.opID(lane, op)
	s := l.lanes[lane]
	*s = append(*s, span{name: "fetch", op: id, id: id,
		start: int64(start.Sub(l.epoch)), end: int64(end.Sub(l.epoch)), ok: ok})
}

// write dumps every span as one JSON object per line.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, lane := range l.lanes {
		for _, s := range *lane {
			fmt.Fprintf(w, "{\"name\":%q,\"op\":\"%x\",\"span\":\"%x\",\"parent\":\"%x\",\"start_ns\":%d,\"end_ns\":%d,\"ok\":%v}\n",
				s.name, s.op, s.id, s.parent, s.start, s.end, s.ok)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perLayer are the metrics of single layers, from the traced run only. A
// layer is a package under internal/; loadgen and budget are the
// benchmark's own. Timings are medians of replayed calls; _per_fetch
// values are counts of the traced loaded phase over its operations.
var perLayer = []metricDef{
	{name: "transport.tcp_pingpong_us", unit: "us"},
	{name: "transport.udp_pingpong_us", unit: "us"},
	{name: "transport.tcp_stream_frames_per_s", unit: "1/s", higher: true},
	{name: "transport.udp_stream_frames_per_s", unit: "1/s", higher: true},
	{name: "transport.tcp_stream_cpu_us", unit: "us"},
	{name: "transport.udp_stream_cpu_us", unit: "us"},
	{name: "transport.edge_frames_in_per_fetch", unit: "count"},
	{name: "transport.edge_bytes_out_per_fetch", unit: "B"},
	{name: "transport.edge_errors", unit: "count"},

	{name: "ndn.decode_interest_ns", unit: "ns"},
	{name: "ndn.encode_interest_ns", unit: "ns"},
	{name: "ndn.decode_data_ns", unit: "ns"},
	{name: "ndn.encode_data_ns", unit: "ns"},
	{name: "ndn.decode_interest_allocs", unit: "count"},
	{name: "ndn.decode_data_allocs", unit: "count"},
	{name: "ndn.cs_lookup_hit_ns", unit: "ns"},
	{name: "ndn.cs_insert_evict_ns", unit: "ns"},
	{name: "ndn.pit_insert_consume_ns", unit: "ns"},
	{name: "ndn.fib_lookup_ns", unit: "ns"},

	{name: "bloom.contains_ns", unit: "ns"},
	{name: "bloom.add_ns", unit: "ns"},
	{name: "bloom.edge_lookups_per_fetch", unit: "count"},
	{name: "bloom.edge_insertions_per_fetch", unit: "count"},
	{name: "bloom.edge_resets_per_s", unit: "1/s"},
	{name: "bloom.edge_fill_ratio_end", unit: "ratio"},

	{name: "core.cachekey_ns", unit: "ns"},
	{name: "core.tag_id_ns", unit: "ns"},
	{name: "core.precheck_edge_ns", unit: "ns"},
	{name: "core.revocation_contains_ns", unit: "ns"},
	{name: "core.validate_ok_us", unit: "us"},
	{name: "core.validate_forged_us", unit: "us"},
	{name: "core.edge_verifications_per_fetch", unit: "count"},
	{name: "core.edge_verify_useful_ratio", unit: "ratio", higher: true},

	{name: "pki.verify_p256_us", unit: "us"},
	{name: "pki.sign_p256_us", unit: "us"},

	{name: "enforce.edge_interest_hit_ns", unit: "ns"},
	{name: "enforce.edge_interest_miss_ns", unit: "ns"},
	{name: "enforce.content_interest_flag_ns", unit: "ns"},
	{name: "enforce.edge_data_ns", unit: "ns"},

	{name: "forwarder.hit_hop_rtt_us", unit: "us"},
	{name: "forwarder.miss_hop_rtt_us", unit: "us"},
	{name: "forwarder.edge_cs_hit_ratio", unit: "ratio", higher: true},
	{name: "forwarder.core_interests_per_fetch", unit: "count"},
	{name: "forwarder.producer_served_per_fetch", unit: "count"},
	{name: "forwarder.edge_nacks_per_fetch", unit: "count"},
	{name: "forwarder.edge_drops", unit: "count"},
	{name: "forwarder.edge_verify_sheds", unit: "count"},
	{name: "forwarder.edge_verify_parked_peak", unit: "count"},
	{name: "forwarder.edge_verify_park_us", unit: "us"},
	{name: "forwarder.edge_pit_entries_peak", unit: "count"},
	{name: "forwarder.edge_stage_decode_us", unit: "us"},
	{name: "forwarder.edge_stage_bf_lookup_us", unit: "us"},
	{name: "forwarder.edge_stage_verify_us", unit: "us"},
	{name: "forwarder.edge_stage_pit_cs_us", unit: "us"},
	{name: "forwarder.edge_stage_encode_send_us", unit: "us"},

	{name: "obs.trace_overhead_ratio", unit: "ratio", higher: true},

	{name: "loadgen.self_us_per_fetch", unit: "us"},
	{name: "loadgen.cpu_us_per_fetch", unit: "us"},
	{name: "loadgen.light_p90_us", unit: "us"},
	{name: "loadgen.light_p99_us", unit: "us"},
	{name: "loadgen.light_p999_us", unit: "us"},
	{name: "loadgen.loaded_p50_us", unit: "us"},
	{name: "loadgen.loaded_p90_us", unit: "us"},
	{name: "loadgen.loaded_p99_us", unit: "us"},
	{name: "loadgen.samples_light", unit: "count", higher: true},
	{name: "loadgen.samples_loaded", unit: "count", higher: true},

	{name: "budget.accounted_us_per_fetch", unit: "us", higher: true},
	{name: "budget.unaccounted_share", unit: "ratio"},
}

// peaks polls the edge's instantaneous gauges while a phase runs; a
// counter difference cannot show how deep a queue got.
type peaks struct {
	parked, pit int64
}

func watchPeaks(r *rig, stop <-chan struct{}) <-chan peaks {
	out := make(chan peaks, 1)
	go func() {
		var p peaks
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				out <- p
				return
			case <-tick.C:
				st := r.edge.Status()
				p.parked = max(p.parked, st.VerifyPool.Parked)
				p.pit = max(p.pit, int64(st.PITEntries))
			}
		}
	}()
	return out
}

// runTraced produces the per-layer metrics of one workload. It measures
// an untraced loaded phase first, so the price of tracing is a ratio of
// two rates from one process; then a rig whose nodes trace every packet
// into a flight recorder, driven with spans on in the load generator;
// then the replay. Nothing here feeds an end-to-end metric.
func runTraced(wl workload, seed int64, seconds int, out string) (*result, error) {
	d := time.Duration(seconds) * time.Second / 5
	res := &result{Workload: wl.name, Traced: true, Seed: seed, Provenance: newProvenance(d, d)}

	lg, _, err := setUp(wl, seed, false)
	if err != nil {
		return nil, err
	}
	untraced, _, err := lg.timed(loadedWindow, warmup, d)
	lg.r.close()
	if err != nil {
		return nil, err
	}

	if lg, _, err = setUp(wl, seed, true); err != nil {
		return nil, err
	}
	r := lg.r
	defer r.close()
	log := newSpanLog(len(lg.conns) + 1)
	for _, c := range lg.conns {
		c.spans = log
	}
	light, _, err := lg.timed(lightWindow, warmup, d)
	if err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	peaked := watchPeaks(r, stop)
	loaded, _, err := lg.timed(loadedWindow, warmup, d)
	close(stop)
	peak := <-peaked
	if err != nil {
		return nil, err
	}
	var captured []*ndn.Data
	for _, c := range lg.conns {
		captured = append(captured, c.capture...)
	}
	r.close() // the nodes are quiet before the single-threaded replay starts

	s, err := newSample(r.w, wl, seed, captured)
	if err != nil {
		return nil, err
	}
	rp := newReplayer(log)
	t, err := rp.layers(s)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	cpuOf := make(map[string]float64)
	for _, scheme := range []string{"tcp", "udp"} {
		rtt, rate, cpu, err := rp.wire(scheme, s)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		cpuOf[scheme] = cpu
		t["transport."+scheme+"_pingpong_us"] = rtt
		t["transport."+scheme+"_stream_frames_per_s"] = rate
		t["transport."+scheme+"_stream_cpu_us"] = cpu
	}
	hit, miss, err := rp.hop(wl.scheme, s)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	t["forwarder.hit_hop_rtt_us"], t["forwarder.miss_hop_rtt_us"] = hit, miss
	if rp.err != nil {
		return nil, fmt.Errorf("replay: %w", rp.err)
	}

	p := loaded
	t["transport.edge_frames_in_per_fetch"] = p.perFetch(p.edgeFramesIn)
	t["transport.edge_bytes_out_per_fetch"] = p.perFetch(p.edgeBytesOut)
	t["transport.edge_errors"] = float64(p.edgeFaceErrors)
	t["bloom.edge_lookups_per_fetch"] = p.perFetch(p.bfLookups)
	t["bloom.edge_insertions_per_fetch"] = p.perFetch(p.bfInsertions)
	t["bloom.edge_resets_per_s"] = perSecond(p.bfResets, p.elapsed)
	t["bloom.edge_fill_ratio_end"] = p.bfFillEnd
	t["core.edge_verifications_per_fetch"] = p.perFetch(p.edgeVerifications)
	t["core.edge_verify_useful_ratio"] = 1
	if p.edgeVerifications > 0 {
		t["core.edge_verify_useful_ratio"] = float64(p.counts.needsVerify) / float64(p.edgeVerifications)
	}
	t["forwarder.edge_cs_hit_ratio"] = p.csHitRatio()
	t["forwarder.core_interests_per_fetch"] = p.perFetch(p.coreInterests)
	t["forwarder.producer_served_per_fetch"] = p.perFetch(p.producerServed)
	t["forwarder.edge_nacks_per_fetch"] = p.perFetch(p.edgeNACKs)
	t["forwarder.edge_drops"] = float64(p.edgeDrops)
	t["forwarder.edge_verify_sheds"] = float64(p.edgeSheds)
	t["forwarder.edge_verify_parked_peak"] = float64(peak.parked)
	t["forwarder.edge_verify_park_us"] = p.parkMicros
	t["forwarder.edge_pit_entries_peak"] = float64(peak.pit)
	for _, st := range stages {
		t["forwarder.edge_stage_"+st+"_us"] = p.stageMicros[st]
	}
	t["obs.trace_overhead_ratio"] = p.fetchRate() / untraced.fetchRate()
	t["loadgen.cpu_us_per_fetch"] = untraced.cpuMicros()
	t["loadgen.light_p90_us"] = percentile(light.lat, 0.90) / 1e3
	t["loadgen.light_p99_us"] = percentile(light.lat, 0.99) / 1e3
	t["loadgen.light_p999_us"] = percentile(light.lat, 0.999) / 1e3
	t["loadgen.loaded_p50_us"] = percentile(p.lat, 0.50) / 1e3
	t["loadgen.loaded_p90_us"] = percentile(p.lat, 0.90) / 1e3
	t["loadgen.loaded_p99_us"] = percentile(p.lat, 0.99) / 1e3
	t["loadgen.samples_light"] = float64(len(light.lat))
	t["loadgen.samples_loaded"] = float64(len(p.lat))
	t["budget.accounted_us_per_fetch"] = accounted(t, p, cpuOf[wl.scheme])
	t["budget.unaccounted_share"] = 1 - t["budget.accounted_us_per_fetch"]/untraced.cpuMicros()

	for _, def := range perLayer {
		v, ok := t[def.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not produced", def.name)
		}
		res.set(def, v)
	}
	for _, ph := range []phaseStats{untraced, light, loaded} {
		res.Ops += ph.counts.ops
		res.Failed += ph.counts.failed
	}
	res.Violations = slices.Concat(wl.violations("untraced loaded", untraced),
		wl.violations("traced light", light), wl.violations("traced loaded", loaded))
	res.Correct = len(res.Violations) == 0

	if err := log.write(filepath.Join(out, "trace-"+wl.name+".jsonl")); err != nil {
		return nil, err
	}
	return res, writeRecorders(filepath.Join(out, "trace-"+wl.name+"-nodes.jsonl"), r.edgeRec, r.coreRec, r.prodRec)
}

// accounted is the budget's left-hand side: each replayed layer time
// multiplied by how often the loaded phase ran it per fetch, in
// microseconds. Client and node codec and socket work is inside the
// face-pair CPU figure, once per hop; what no term covers (scheduling,
// garbage collection, parking, the forwarder's own bookkeeping) is the
// unaccounted remainder.
func accounted(t layerTimes, p phaseStats, hopCPUMicros float64) float64 {
	forwards := p.perFetch(p.coreInterests) + p.perFetch(p.producerServed) // Interests sent on upstream
	hops := 1 + forwards
	missShare := p.perFetch(p.counts.needsVerify)
	answered := p.perFetch(p.edgeCSHits) + p.perFetch(p.edgeNACKs) + p.perFetch(p.producerServed)
	forgedShare := p.perFetch(p.counts.forgedSent)
	verified := max(p.perFetch(p.edgeVerifications)-forgedShare, 0)
	ns := t["enforce.edge_interest_hit_ns"]*(1-missShare) +
		t["enforce.edge_interest_miss_ns"]*missShare +
		t["enforce.content_interest_flag_ns"]*answered +
		t["ndn.cs_lookup_hit_ns"]*(p.perFetch(p.edgeInterests)+p.perFetch(p.coreInterests)) +
		(t["ndn.pit_insert_consume_ns"]+t["ndn.fib_lookup_ns"]+t["ndn.cs_insert_evict_ns"])*forwards +
		t["enforce.edge_data_ns"]*p.perFetch(p.coreInterests) +
		t["bloom.add_ns"]*p.perFetch(p.bfInsertions)
	return hops*hopCPUMicros + ns/1e3 +
		t["core.validate_ok_us"]*verified + t["core.validate_forged_us"]*forgedShare +
		t["loadgen.self_us_per_fetch"]
}

// writeRecorders dumps the nodes' flight recorders, oldest span first.
func writeRecorders(path string, recs ...*obs.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, rec := range recs {
		if _, err := rec.WriteJSONL(w); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
