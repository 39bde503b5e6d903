package forwarder

import (
	"strconv"
	"time"

	"github.com/tactic-icn/tactic/internal/bloom"
	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/node"
	"github.com/tactic-icn/tactic/internal/obs"
	"github.com/tactic-icn/tactic/internal/transport"
)

// The forwarder's families are declared in obs's catalogue; these two
// aliases are the names the live-path benchmark module reads.
const (
	MetricStageSeconds      = obs.MetricStageSeconds
	MetricVerifyParkSeconds = obs.MetricVerifyParkSeconds
)

// obsMetrics pre-resolves the forwarder's registry series so the packet
// pipeline increments lock-free atomics only. It holds no packet counter:
// what became of each packet is the node core's ledger, which the
// registry reads at scrape time (exposeLedger). reg is never nil: without
// a Config.Obs the forwarder registers into a private registry.
type obsMetrics struct {
	reg            *obs.Registry
	role           obs.Label
	hop            *obs.Histogram
	pitExpired     *obs.Counter
	pitFlushed     *obs.Counter
	routesDetached *obs.Counter

	// Sampled stage latencies (obs.MetricStageSeconds). stagePITCS and
	// stageEncodeSend are observed by the pipeline; stageDecode is fed to
	// every face's transport metrics. bf_lookup and verify live inside
	// the bloom filter and validator respectively (see registerSampled).
	stagePITCS      *obs.Histogram
	stageEncodeSend *obs.Histogram
	stageDecode     *obs.Histogram

	// Verify-pool park time (the pool's own counters and gauge are
	// registerSampled callbacks).
	parkSeconds *obs.Histogram

	// BF-sync advert words by direction.
	syncWordsIn  *obs.Counter
	syncWordsOut *obs.Counter
}

// stageSampleMask selects which Interests contribute pit_cs / encode_send
// stage timings: a face reader's Interest counts where count&mask == 0.
const stageSampleMask = 63

// observeStageSpan records one stage timing into the stage histogram
// (tagging the bucket with the span's trace ID as an exemplar) and onto
// the span itself. start is zero when neither the 1-in-64 stage sampler
// nor a trace span selected this packet; h and sp are each nil-safe.
func observeStageSpan(h *obs.Histogram, stage string, start time.Time, sp *obs.Span) {
	if start.IsZero() {
		return
	}
	d := time.Since(start)
	h.ObserveTraced(d.Seconds(), sp.TraceID())
	sp.EventDur(stage, d, "")
}

// verifyDetail renders a signature-verification outcome for trace
// annotations.
func verifyDetail(failed bool) string {
	if failed {
		return "fail"
	}
	return "ok"
}

func newObsMetrics(reg *obs.Registry, role Role) *obsMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &obsMetrics{reg: reg, role: obs.L("role", role.String())}
	m.hop = reg.Histogram(obs.MetricHopSeconds, nil, m.role)
	m.pitExpired = reg.Counter(obs.MetricPITExpired, m.role)
	m.pitFlushed = reg.Counter(obs.MetricPITFlushed, m.role)
	m.routesDetached = reg.Counter(obs.MetricRoutesDetached, m.role)
	m.syncWordsIn = reg.Counter(obs.MetricBFSyncWords, m.role, obs.L("dir", "in"))
	m.syncWordsOut = reg.Counter(obs.MetricBFSyncWords, m.role, obs.L("dir", "out"))
	m.stagePITCS = reg.Histogram(obs.MetricStageSeconds, nil, m.role, obs.L("stage", "pit_cs"))
	m.stageEncodeSend = reg.Histogram(obs.MetricStageSeconds, nil, m.role, obs.L("stage", "encode_send"))
	m.stageDecode = reg.Histogram(obs.MetricStageSeconds, nil, m.role, obs.L("stage", "decode"))
	m.parkSeconds = reg.Histogram(obs.MetricVerifyParkSeconds, nil, m.role)
	return m
}

// faceStatSeries lists what transport.Stats counts as face series, so
// the series and Stats() are one ledger read twice. stats is the face's
// Stats method; flushes adds the counter only stream faces move.
func faceStatSeries(stats func() transport.Stats, flushes bool) []transport.Series {
	in, out := obs.L("dir", "in"), obs.L("dir", "out")
	ss := []transport.Series{
		{Name: obs.MetricFaceFrames, Labels: []obs.Label{in}, Read: func() float64 { return float64(stats().FramesIn) }},
		{Name: obs.MetricFaceFrames, Labels: []obs.Label{out}, Read: func() float64 { return float64(stats().FramesOut) }},
		{Name: obs.MetricFaceBytes, Labels: []obs.Label{in}, Read: func() float64 { return float64(stats().BytesIn) }},
		{Name: obs.MetricFaceBytes, Labels: []obs.Label{out}, Read: func() float64 { return float64(stats().BytesOut) }},
		{Name: obs.MetricFaceErrors, Read: func() float64 { return float64(stats().Errors) }},
	}
	if flushes {
		ss = append(ss, transport.Series{Name: obs.MetricFaceFlushes, Read: func() float64 { return float64(stats().Flushes) }})
	}
	return ss
}

// registerSeries registers each series under labels plus its own.
func registerSeries(reg *obs.Registry, ss []transport.Series, labels []obs.Label) []transport.Series {
	for i := range ss {
		ss[i].Labels = append(append([]obs.Label(nil), labels...), ss[i].Labels...)
		reg.CounterFunc(ss[i].Name, ss[i].Read, ss[i].Labels...)
	}
	return ss
}

// exposeFace registers the face's series (role, face, link labels) and
// hands the face its non-counter hooks. An upstream datagram face was
// dialed, so it owns its socket and the socket's datagram-plane counters
// get per-face series too; a downstream one shares its listener's, which
// UDPEndpoint.Instrument exposes once for the endpoint.
func (f *Forwarder) exposeFace(fs *faceState) {
	m := f.m
	link := "upstream"
	if fs.downstream {
		link = "downstream"
	}
	labels := []obs.Label{m.role, obs.L("face", strconv.Itoa(int(fs.id))), obs.L("link", link)}
	df, datagram := fs.conn.(*transport.DatagramFace)
	ss := faceStatSeries(fs.conn.Stats, !datagram)
	if datagram && !fs.downstream {
		ss = append(ss, df.Series()...)
	}
	fs.series = registerSeries(m.reg, ss, labels)
	fs.conn.SetMetrics(&transport.Metrics{DecodeSeconds: m.stageDecode, Events: f.ev, Face: int(fs.id)})
}

// release closes a detached face and re-points its series at their last
// values: the series outlive the face (a counter never disappears from
// /metrics), and must not keep its buffers alive through their callbacks.
func (f *Forwarder) release(fs *faceState) {
	fs.conn.Close()
	for _, s := range fs.series {
		last := s.Read()
		f.m.reg.CounterFunc(s.Name, func() float64 { return last }, s.Labels...)
	}
}

// exposeLedger registers the node core's ledger as scrape-time series:
// the packet families are views of the one count Stats() reads too. Only
// an origin answers registrations, so only it exports their family.
func (f *Forwarder) exposeLedger() {
	reg, role, l := f.m.reg, f.m.role, f.Ledger()
	count := func(name string, read func() uint64, labels ...obs.Label) {
		reg.CounterFunc(name, func() float64 { return float64(read()) }, append([]obs.Label{role}, labels...)...)
	}
	count(obs.MetricInterests, l.Interests)
	count(obs.MetricData, l.Data)
	count(obs.MetricCSHits, l.CSHits)
	for code, reason := range core.ReasonLabels() {
		count(obs.MetricNACKs, func() uint64 { return l.NACKs(uint8(code)) }, obs.L("reason", reason))
	}
	for _, cause := range node.DropCauses {
		count(obs.MetricDrops, func() uint64 { return l.Drops(cause) }, obs.L("cause", cause))
	}
	for _, kind := range node.ControlKinds {
		for _, outcome := range node.ControlOutcomes {
			count(obs.MetricControl, func() uint64 { return l.Control(kind, outcome) },
				obs.L("kind", kind.String()), obs.L("outcome", outcome))
		}
	}
	count(obs.MetricControl, func() uint64 { return l.Control(0, node.ControlInvalid) },
		obs.L("kind", node.ControlKindOther), obs.L("outcome", node.ControlInvalid))
	if f.cfg.Role == RoleOrigin {
		count(obs.MetricRegistrations, func() uint64 { return l.Registrations(true) }, obs.L("result", "issued"))
		count(obs.MetricRegistrations, func() uint64 { return l.Registrations(false) }, obs.L("result", "failed"))
	}
}

// registerSampled wires the counters owned by other layers (Bloom
// filter, validator) and the instantaneous table sizes as scrape-time
// callbacks, and hands the bf_lookup / verify stage histograms to the
// layers that own those stages. Every source synchronises itself, so the
// callbacks take no forwarder lock except the face-count gauge (f.mu
// read lock; the obs registry never scrapes under its own lock, so no
// lock order is imposed).
func (f *Forwarder) registerSampled() {
	reg, role := f.m.reg, f.m.role
	f.tactic.Bloom().SetLookupHistogram(reg.Histogram(obs.MetricStageSeconds, nil, role, obs.L("stage", "bf_lookup")))
	f.tactic.Validator().SetVerifyHistogram(reg.Histogram(obs.MetricStageSeconds, nil, role, obs.L("stage", "verify")))
	reg.GaugeFunc(obs.MetricVerifyInFlight, func() float64 { return float64(f.tactic.Validator().InFlight()) }, role)
	reg.CounterFunc(obs.MetricVerifySheds, func() float64 { return float64(f.vp.Sheds()) }, role)
	reg.CounterFunc(obs.MetricVerifyCoalesced, func() float64 { return float64(f.vp.Coalesced()) }, role)
	reg.GaugeFunc(obs.MetricVerifyParked, func() float64 { return float64(f.vp.Parked()) }, role)
	reg.CounterFunc(obs.MetricVerifyFlushed, func() float64 { return float64(f.vp.Flushed()) }, role)
	reg.CounterFunc(obs.MetricBFLookups, func() float64 { return float64(f.tactic.Bloom().Stats().Lookups) }, role)
	reg.CounterFunc(obs.MetricBFInsertions, func() float64 { return float64(f.tactic.Bloom().Stats().Insertions) }, role)
	reg.CounterFunc(obs.MetricBFResets, func() float64 { return float64(f.tactic.Bloom().Stats().Resets) }, role)
	reg.CounterFunc(obs.MetricVerifications, func() float64 { return float64(f.tactic.Validator().Verifications()) }, role)
	for reason, get := range map[string]func(core.ValidatorStats) uint64{
		"no_tag":  func(s core.ValidatorStats) uint64 { return s.Missing },
		"expired": func(s core.ValidatorStats) uint64 { return s.Expired },
		"forged":  func(s core.ValidatorStats) uint64 { return s.Forged },
	} {
		get := get
		reg.CounterFunc(obs.MetricVerifyFailed,
			func() float64 { return float64(get(f.tactic.Validator().Stats())) },
			role, obs.L("reason", reason))
	}
	reg.GaugeFunc(obs.MetricRevokedEntries, func() float64 { return float64(f.tactic.Revocations().Len()) }, role)
	reg.GaugeFunc(obs.MetricBFEpoch, func() float64 { return float64(f.tactic.Epoch()) }, role)
	reg.GaugeFunc(obs.MetricBFFillRatio, func() float64 { return f.tactic.Bloom().FillRatio() }, role)
	reg.GaugeFunc(obs.MetricBFFPP, func() float64 { return f.tactic.Bloom().FPP() }, role)
	reg.GaugeFunc(obs.MetricBFTargetFPP, func() float64 { return f.tactic.Bloom().MaxFPP() }, role)
	reg.GaugeFunc(obs.MetricPITEntries, func() float64 { return float64(f.pit.Len()) }, role)
	reg.GaugeFunc(obs.MetricCSEntries, func() float64 { return float64(f.cs.Len()) }, role)
	reg.GaugeFunc(obs.MetricFIBEntries, func() float64 { return float64(f.fib.Len()) }, role)
	reg.GaugeFunc(obs.MetricFaces, func() float64 {
		f.mu.RLock()
		defer f.mu.RUnlock()
		return float64(len(f.faces))
	}, role)
}

// BloomStatus describes one Bloom filter for /statusz.
type BloomStatus struct {
	// Bits and Hashes are the filter shape (m, k).
	Bits   uint64 `json:"bits"`
	Hashes uint32 `json:"hashes"`
	// FillRatio is the fraction of set bits.
	FillRatio float64 `json:"fill_ratio"`
	// FPP is the false-positive probability read from the set bits;
	// MaxFPP the reset threshold.
	FPP    float64 `json:"fpp"`
	MaxFPP float64 `json:"max_fpp"`
	// Lookups, Insertions, Resets are lifetime operation counts.
	Lookups    uint64 `json:"lookups"`
	Insertions uint64 `json:"insertions"`
	Resets     uint64 `json:"resets"`
	// RequestsSinceReset counts lookups absorbed since the last reset.
	RequestsSinceReset uint64 `json:"requests_since_reset"`
}

// bloomStatus snapshots a filter (safe concurrently with traffic).
func bloomStatus(f *bloom.Filter) BloomStatus {
	st := f.Stats()
	return BloomStatus{
		Bits: f.Bits(), Hashes: f.Hashes(),
		FillRatio: f.FillRatio(), FPP: f.FPP(), MaxFPP: f.MaxFPP(),
		Lookups: st.Lookups, Insertions: st.Insertions, Resets: st.Resets,
		RequestsSinceReset: f.RequestsSinceReset(),
	}
}

// FaceStatus describes one attached face for /statusz.
type FaceStatus struct {
	ID         int             `json:"id"`
	Remote     string          `json:"remote,omitempty"`
	Downstream bool            `json:"downstream"`
	Stats      transport.Stats `json:"stats"`
}

// Status is the forwarder's /statusz document.
type Status struct {
	ID            string  `json:"id"`
	Role          string  `json:"role"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	PITEntries    int     `json:"pit_entries"`
	CSEntries     int     `json:"cs_entries"`
	FIBEntries    int     `json:"fib_entries"`
	// Epoch and RevokedEntries are the lifecycle control-plane state:
	// the BF epoch this node has rotated to and its revocation-set size.
	Epoch          uint64              `json:"epoch"`
	RevokedEntries int                 `json:"revoked_entries"`
	Bloom          BloomStatus         `json:"bloom"`
	Validator      core.ValidatorStats `json:"validator"`
	Counters       Stats               `json:"counters"`
	// VerifyPool is the bounded async verification subsystem's state.
	VerifyPool VerifyPoolStatus `json:"verify_pool"`
	Faces      []FaceStatus     `json:"faces"`
}

// VerifyPoolStatus describes the verification pool for /statusz.
type VerifyPoolStatus struct {
	// Workers is the pool size; Budget the per-face parked+in-flight
	// cap (0 = admission disabled).
	Workers int `json:"workers"`
	Budget  int `json:"budget"`
	// Parked counts Interests currently awaiting a verdict.
	Parked int64 `json:"parked"`
	// Sheds and Flushed are lifetime Overload sheds and flush NACKs;
	// Coalesced counts Interests answered from another Interest's
	// verification of the same tag.
	Sheds     uint64 `json:"sheds"`
	Flushed   uint64 `json:"flushed"`
	Coalesced uint64 `json:"coalesced"`
}

// Status snapshots the forwarder for /statusz. Only the face walk needs
// a (read) lock; every other source is safe concurrently with traffic.
func (f *Forwarder) Status() Status {
	st := Status{
		ID:             f.cfg.ID,
		Role:           f.cfg.Role.String(),
		UptimeSeconds:  time.Since(f.start).Seconds(),
		PITEntries:     f.pit.Len(),
		CSEntries:      f.cs.Len(),
		FIBEntries:     f.fib.Len(),
		Epoch:          f.tactic.Epoch(),
		RevokedEntries: f.tactic.Revocations().Len(),
		Bloom:          bloomStatus(f.tactic.Bloom()),
		Validator:      f.tactic.Validator().Stats(),
		Counters:       f.Stats(),
		VerifyPool: VerifyPoolStatus{
			Workers:   f.cfg.VerifyWorkers,
			Budget:    f.vp.q.Budget(),
			Parked:    f.vp.Parked(),
			Sheds:     f.vp.Sheds(),
			Flushed:   f.vp.Flushed(),
			Coalesced: f.vp.Coalesced(),
		},
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	for id, fs := range f.faces {
		fst := FaceStatus{ID: int(id), Downstream: fs.downstream, Stats: fs.conn.Stats()}
		if addr := fs.conn.RemoteAddr(); addr != nil {
			fst.Remote = addr.String()
		}
		st.Faces = append(st.Faces, fst)
	}
	return st
}
