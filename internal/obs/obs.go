// Package obs is the runtime observability subsystem for the live TACTIC
// stack and the simulator: a dependency-light registry of named counters,
// gauges, and fixed-bucket histograms with labels, per-Interest trace
// spans (trace.go), and HTTP exposition in Prometheus text format plus a
// JSON status snapshot and pprof (http.go).
//
// Design constraints, in order:
//
//   - The increment path must be lock-free: instrumented code resolves
//     its metrics once (Registry.Counter et al., which take the registry
//     lock) and then increments via atomics only.
//   - Every type tolerates a nil receiver as a no-op, so instrumented
//     packages run unchanged when observability is not configured — a
//     forwarder built without a Registry pays one nil check per event.
//   - Scrapes never call user callbacks while holding the registry lock
//     (the series list is snapshotted first), so a GaugeFunc may itself
//     take locks that instrumented code holds while creating metrics.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name="value" pair attached to a metric series.
type Label struct {
	// Key is the label name.
	Key string
	// Value is the label value.
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing counter. The zero value is ready
// to use; a nil Counter ignores increments.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one and returns the new count (0 for nil), so a caller that
// samples every Nth event needs no second counter.
func (c *Counter) Inc() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable value. The zero value is ready; nil ignores sets.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the stored value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates observations into fixed buckets, Prometheus
// style: counts per upper bound plus an implicit +Inf bucket, a running
// sum, and a total count. Observe is atomic and lock-free; nil ignores
// observations.
type Histogram struct {
	bounds  []float64 // sorted upper bounds, +Inf excluded
	counts  []atomic.Uint64
	infCnt  atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
	// exemplars holds the most recent trace ID observed into each bucket
	// (parallel to counts, one extra slot for +Inf; zero = none), so a
	// bad latency bucket links to a concrete trace in /tracez.
	exemplars []atomic.Uint64
}

// DefLatencyBuckets spans 10 µs – 2.5 s, tuned for the per-hop pipeline
// latencies the forwarder observes.
var DefLatencyBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5,
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	h := &Histogram{bounds: bs}
	h.counts = make([]atomic.Uint64, len(bs))
	h.exemplars = make([]atomic.Uint64, len(bs)+1)
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.ObserveTraced(v, 0)
}

// ObserveTraced records one sample and, when traceID is non-zero,
// remembers it as the bucket's exemplar — the trace that most recently
// landed there.
func (h *Histogram) ObserveTraced(v float64, traceID uint64) {
	if h == nil {
		return
	}
	placed := false
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			if traceID != 0 {
				h.exemplars[i].Store(traceID)
			}
			placed = true
			break
		}
	}
	if !placed {
		h.infCnt.Add(1)
		if traceID != 0 {
			h.exemplars[len(h.bounds)].Store(traceID)
		}
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the running sum of observations (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// kind discriminates metric families.
type kind uint8

const (
	kindCounter kind = iota + 1
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

func (k kind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one labelled instance of a family. Exactly one backing slot
// is populated inside Registry.get while the registry lock is held;
// counter/gauge/hist never change afterwards, and fn is atomic so a
// re-registered callback cannot race a concurrent scrape.
type series struct {
	labels  string // rendered {k="v",...} suffix, "" when unlabelled
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      atomic.Pointer[func() float64]
}

// family groups all series sharing one metric name.
type family struct {
	name   string
	kind   kind
	series map[string]*series
}

// Registry holds named metrics. Metric resolution (Counter, Gauge, …)
// takes a lock; the returned handles increment lock-free. A nil Registry
// resolves every metric to nil, which no-ops — instrumented code need not
// guard call sites.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	start    time.Time
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family), start: time.Now()}
}

// Uptime reports time since the registry was created.
func (r *Registry) Uptime() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.start)
}

// renderLabels builds the canonical {k="v",...} suffix with keys sorted,
// so the same label set always maps to the same series.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`=`)
		b.WriteString(strconv.Quote(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// get returns the series for (name, labels), creating family and series
// as needed; the series' backing value (counter, gauge, histogram, or
// callback) is initialized here, under the registry lock, so callers
// only ever read an already-populated series. Kinds that render to the
// same Prometheus type are compatible — a family may mix direct
// counters and CounterFunc-sampled counters (under distinct labels), as
// the live forwarder does. get panics when a name is reused with an
// incompatible type, when a catalogue family is registered under a type
// other than its declared one, or when one exact (name, labels) series
// is requested both direct and func-backed — programming errors that
// would corrupt the exposition.
func (r *Registry) get(name string, k kind, bounds []float64, fn func() float64, labels []Label) *series {
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.families[name]
	if !ok {
		if spec, ok := declared[name]; ok && spec.Type != k.promType() {
			panic(fmt.Sprintf("obs: metric %s declared as %s, registered as %s", name, spec.Type, k.promType()))
		}
		fam = &family{name: name, kind: k, series: make(map[string]*series)}
		r.families[name] = fam
	} else if fam.kind.promType() != k.promType() {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, fam.kind.promType(), k.promType()))
	}
	s, ok := fam.series[key]
	if !ok {
		s = &series{labels: key}
		switch k {
		case kindCounter:
			s.counter = new(Counter)
		case kindGauge:
			s.gauge = new(Gauge)
		case kindHistogram:
			s.hist = newHistogram(bounds)
		case kindCounterFunc, kindGaugeFunc:
			s.fn.Store(&fn)
		}
		fam.series[key] = s
		return s
	}
	switch k {
	case kindCounter:
		if s.counter == nil {
			panic(fmt.Sprintf("obs: metric %s%s registered as both a direct counter and a sampling callback", name, key))
		}
	case kindGauge:
		if s.gauge == nil {
			panic(fmt.Sprintf("obs: metric %s%s registered as both a direct gauge and a sampling callback", name, key))
		}
	case kindCounterFunc, kindGaugeFunc:
		if s.fn.Load() == nil {
			panic(fmt.Sprintf("obs: metric %s%s registered as both a sampling callback and a direct %s", name, key, k.promType()))
		}
		s.fn.Store(&fn) // re-registration replaces the callback
	}
	return s
}

// Counter returns (creating if needed) the counter for name+labels.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.get(name, kindCounter, nil, nil, labels).counter
}

// Gauge returns (creating if needed) the gauge for name+labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.get(name, kindGauge, nil, nil, labels).gauge
}

// Histogram returns (creating if needed) the histogram for name+labels.
// bounds are bucket upper bounds (nil = DefLatencyBuckets); they are
// fixed on first creation.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	return r.get(name, kindHistogram, bounds, nil, labels).hist
}

// CounterFunc registers a callback sampled at scrape time and exposed as
// a counter — for monotonic totals owned by other subsystems (the Bloom
// filter's lookup count, the validator's verification count). fn may take
// locks; it is never called under the registry lock. Registering the
// same name+labels again replaces the callback.
func (r *Registry) CounterFunc(name string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.get(name, kindCounterFunc, nil, fn, labels)
}

// GaugeFunc registers a callback sampled at scrape time and exposed as a
// gauge — for instantaneous sizes (PIT entries, BF fill ratio).
// Registering the same name+labels again replaces the callback.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.get(name, kindGaugeFunc, nil, fn, labels)
}

// snapshotFamilies copies the family/series structure under the read
// lock so value collection can run unlocked (see package comment).
func (r *Registry) snapshotFamilies() []*family {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, fam := range r.families {
		cp := &family{name: fam.name, kind: fam.kind, series: make(map[string]*series, len(fam.series))}
		for k, s := range fam.series {
			cp.series[k] = s
		}
		fams = append(fams, cp)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// value evaluates one series to a float.
func (s *series) value() float64 {
	switch {
	case s.counter != nil:
		return float64(s.counter.Value())
	case s.gauge != nil:
		return s.gauge.Value()
	}
	if fn := s.fn.Load(); fn != nil {
		return (*fn)()
	}
	return 0
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// sortedSeries returns a family's series in stable label order.
func (fam *family) sortedSeries() []*series {
	keys := make([]string, 0, len(fam.series))
	for k := range fam.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*series, 0, len(keys))
	for _, k := range keys {
		out = append(out, fam.series[k])
	}
	return out
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4). A family's # HELP line is its catalogue help
// text; a family the catalogue does not declare gets none.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, fam := range r.snapshotFamilies() {
		if spec, ok := declared[fam.name]; ok {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fam.name, spec.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam.name, fam.kind.promType()); err != nil {
			return err
		}
		for _, s := range fam.sortedSeries() {
			if fam.kind == kindHistogram {
				if err := writeHistogram(w, fam.name, s); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", fam.name, s.labels, formatFloat(s.value())); err != nil {
				return err
			}
		}
	}
	return nil
}

// withLabel splices one extra label into a rendered label suffix.
func withLabel(rendered, key, value string) string {
	extra := key + `=` + strconv.Quote(value)
	if rendered == "" {
		return "{" + extra + "}"
	}
	return rendered[:len(rendered)-1] + "," + extra + "}"
}

func writeHistogram(w io.Writer, name string, s *series) error {
	h := s.hist
	if h == nil {
		return nil
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		le := withLabel(s.labels, "le", formatFloat(b))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, le, cum); err != nil {
			return err
		}
		// Exemplars ride as comment lines so any 0.0.4 text parser
		// ignores them; /tracez?trace=<id> resolves the trace.
		if ex := h.exemplars[i].Load(); ex != 0 {
			if _, err := fmt.Fprintf(w, "# exemplar %s_bucket%s trace=%s\n", name, le, HexID(ex)); err != nil {
				return err
			}
		}
	}
	cum += h.infCnt.Load()
	le := withLabel(s.labels, "le", "+Inf")
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, le, cum); err != nil {
		return err
	}
	if ex := h.exemplars[len(h.bounds)].Load(); ex != 0 {
		if _, err := fmt.Fprintf(w, "# exemplar %s_bucket%s trace=%s\n", name, le, HexID(ex)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, s.labels, formatFloat(h.Sum())); err != nil {
		return err
	}
	// _count must equal the +Inf bucket (Prometheus spec). Reusing cum —
	// rather than re-loading h.Count() — keeps the two consistent even
	// when Observe races the scrape between the loads.
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, s.labels, cum)
	return err
}

// Snapshot returns every scalar series as rendered-name → value
// (histograms contribute _count and _sum entries). Used by /statusz and
// by tests.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	out := make(map[string]float64)
	for _, fam := range r.snapshotFamilies() {
		for _, s := range fam.sortedSeries() {
			if fam.kind == kindHistogram {
				out[fam.name+"_count"+s.labels] = float64(s.hist.Count())
				out[fam.name+"_sum"+s.labels] = s.hist.Sum()
				continue
			}
			out[fam.name+s.labels] = s.value()
		}
	}
	return out
}
