package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tactic-icn/tactic/internal/obs"
)

// Node identifies one scrape target (a tacticd admin endpoint, in any
// role).
type Node struct {
	// Name is the display / snapshot key; Addr is host:port of the
	// node's admin listener.
	Name string `json:"name"`
	Addr string `json:"addr"`
}

// Config shapes a Poller.
type Config struct {
	Nodes    []Node
	Interval time.Duration // default 2s
	// EventLimit caps events fetched per node per poll (default 32).
	EventLimit int
	// ShedRatePerSec is the fleet alert threshold: total Interests shed
	// per second across all nodes (default 25, mirroring the per-node
	// health default — any single node at its limit alerts the fleet).
	ShedRatePerSec float64
	// Client overrides the HTTP client (tests); default 3s timeout.
	Client *http.Client
	// Logf, when non-nil, receives alert lines as they are raised.
	Logf func(format string, args ...any)
	// Now overrides the clock (tests).
	Now func() time.Time
	// Archive, when non-nil, receives every snapshot as one JSONL line.
	Archive *Archiver
}

// NodeSnapshot is one node's merged scrape.
type NodeSnapshot struct {
	Node string `json:"node"`
	Addr string `json:"addr"`
	// Err is the scrape failure, empty when the node answered.
	Err string `json:"err,omitempty"`
	// Health is the node's own /healthz verdict.
	Health *obs.HealthReport `json:"health,omitempty"`
	// Series maps rendered series keys to scraped values (counters,
	// gauges, and histogram _count/_sum series).
	Series map[string]float64 `json:"series,omitempty"`
	// Rates are per-second deltas for key counter families, computed
	// across this poller's own consecutive scrapes.
	Rates map[string]float64 `json:"rates,omitempty"`
	// Events is the tail of the node's typed event log.
	Events []obs.Event `json:"events,omitempty"`
	// Faces summarises the per-face frame counters.
	Faces []FaceRow `json:"faces,omitempty"`
}

// FaceRow is one row of the per-face table: frames moved by direction
// for one face label on one node.
type FaceRow struct {
	Face      string  `json:"face"`
	Link      string  `json:"link,omitempty"`
	FramesIn  float64 `json:"frames_in"`
	FramesOut float64 `json:"frames_out"`
}

// Alert is one fleet-level rule firing.
type Alert struct {
	Rule   string  `json:"rule"`
	Node   string  `json:"node,omitempty"`
	Detail string  `json:"detail"`
	Value  float64 `json:"value"`
}

// FleetSnapshot is one merged poll of every node.
type FleetSnapshot struct {
	At    time.Time      `json:"at"`
	Nodes []NodeSnapshot `json:"nodes"`
	// Worst is the worst health status across reachable nodes
	// (unreachable nodes force "unhealthy").
	Worst string `json:"worst"`
	// Rates are network-wide per-second sums for key counter families.
	Rates  map[string]float64 `json:"rates,omitempty"`
	Alerts []Alert            `json:"alerts,omitempty"`
}

// rateFamilies are the counter families the poller turns into
// per-second rates — the paper's operational signals: offered load,
// sheds (brute-force pressure), verifications (re-check rate F), and
// reassembly evictions (fragment floods).
var rateFamilies = []string{
	obs.MetricInterests,
	obs.MetricVerifySheds,
	obs.MetricVerifications,
	obs.MetricUDPReassemblyEvictions,
	obs.MetricUplinkConnects,
}

// Poller periodically scrapes every node and publishes merged
// snapshots.
type Poller struct {
	cfg    Config
	client *http.Client
	now    func() time.Time

	last atomic.Pointer[FleetSnapshot]

	mu   sync.Mutex
	prev map[string]nodeSample // by node name

	closed chan struct{}
	once   sync.Once
	wg     sync.WaitGroup
}

// nodeSample remembers the counter sums backing rate computation.
type nodeSample struct {
	at   time.Time
	sums map[string]float64
}

// NewPoller builds a poller; call Run (blocking) or Start.
func NewPoller(cfg Config) *Poller {
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	if cfg.EventLimit <= 0 {
		cfg.EventLimit = 32
	}
	if cfg.ShedRatePerSec <= 0 {
		cfg.ShedRatePerSec = 25
	}
	p := &Poller{cfg: cfg, client: cfg.Client, now: cfg.Now, closed: make(chan struct{}), prev: map[string]nodeSample{}}
	if p.client == nil {
		p.client = &http.Client{Timeout: 3 * time.Second}
	}
	if p.now == nil {
		p.now = time.Now
	}
	return p
}

// Latest returns the most recent snapshot, or nil before the first
// poll completes.
func (p *Poller) Latest() *FleetSnapshot { return p.last.Load() }

// Start launches the poll loop on a goroutine; Close stops it.
func (p *Poller) Start() {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(p.cfg.Interval)
		defer t.Stop()
		p.PollOnce(context.Background())
		for {
			select {
			case <-p.closed:
				return
			case <-t.C:
				p.PollOnce(context.Background())
			}
		}
	}()
}

// Close stops the poll loop (idempotent).
func (p *Poller) Close() {
	p.once.Do(func() { close(p.closed) })
	p.wg.Wait()
}

// PollOnce scrapes every node concurrently, merges the results,
// evaluates the fleet alert rules, and publishes the snapshot.
func (p *Poller) PollOnce(ctx context.Context) *FleetSnapshot {
	snap := &FleetSnapshot{At: p.now(), Nodes: make([]NodeSnapshot, len(p.cfg.Nodes))}
	var wg sync.WaitGroup
	for i, n := range p.cfg.Nodes {
		wg.Add(1)
		go func(i int, n Node) {
			defer wg.Done()
			snap.Nodes[i] = p.scrapeNode(ctx, n)
		}(i, n)
	}
	wg.Wait()
	p.finish(snap)
	p.last.Store(snap)
	if err := p.cfg.Archive.Append(snap); err != nil && p.cfg.Logf != nil {
		p.cfg.Logf("archive: %v", err)
	}
	return snap
}

// scrapeNode fetches one node's /metrics, /healthz, and /eventz.
func (p *Poller) scrapeNode(ctx context.Context, n Node) NodeSnapshot {
	ns := NodeSnapshot{Node: n.Name, Addr: n.Addr}
	base := "http://" + n.Addr
	body, err := p.get(ctx, base+"/metrics")
	if err != nil {
		ns.Err = err.Error()
		return ns
	}
	exp, err := ParsePromText(strings.NewReader(string(body)))
	if err != nil {
		ns.Err = fmt.Sprintf("parse metrics: %v", err)
		return ns
	}
	ns.Series = make(map[string]float64, len(exp.Samples))
	for _, s := range exp.Samples {
		if !strings.HasSuffix(s.Name, "_bucket") { // buckets stay out of the flat map
			ns.Series[s.Key()] = s.Value
		}
	}
	ns.Faces = faceTable(exp)

	// /healthz speaks JSON at 200 (ready/degraded) and 503 (unhealthy);
	// both carry the report.
	if body, err := p.get(ctx, base+"/healthz"); err == nil {
		var hr obs.HealthReport
		if json.Unmarshal(body, &hr) == nil && hr.Status != "" {
			ns.Health = &hr
		}
	}
	if body, err := p.get(ctx, fmt.Sprintf("%s/eventz?limit=%d", base, p.cfg.EventLimit)); err == nil {
		var doc struct {
			Events []obs.Event `json:"events"`
		}
		if json.Unmarshal(body, &doc) == nil {
			ns.Events = doc.Events
		}
	}
	return ns
}

// get fetches one URL, tolerating non-2xx statuses that still carry a
// body (healthz answers 503 when unhealthy).
func (p *Poller) get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(io.LimitReader(resp.Body, 8<<20))
}

// faceTable extracts the per-face frame counters.
func faceTable(exp *Exposition) []FaceRow {
	rows := map[string]*FaceRow{}
	for _, s := range exp.Samples {
		if s.Name != obs.MetricFaceFrames {
			continue
		}
		face := s.Labels["face"]
		if face == "" {
			continue
		}
		key := face + "/" + s.Labels["link"]
		r := rows[key]
		if r == nil {
			r = &FaceRow{Face: face, Link: s.Labels["link"]}
			rows[key] = r
		}
		if s.Labels["dir"] == "out" {
			r.FramesOut += s.Value
		} else {
			r.FramesIn += s.Value
		}
	}
	out := make([]FaceRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Face != out[j].Face {
			return out[i].Face < out[j].Face
		}
		return out[i].Link < out[j].Link
	})
	return out
}

// finish computes per-node and fleet rates, the worst-health rollup,
// and the alert rules.
func (p *Poller) finish(snap *FleetSnapshot) {
	snap.Rates = map[string]float64{}
	worst := 0 // 0 ready, 1 degraded, 2 unhealthy
	var epochs []struct {
		node string
		v    float64
	}

	p.mu.Lock()
	for i := range snap.Nodes {
		ns := &snap.Nodes[i]
		if ns.Err != "" {
			worst = 2
			snap.Alerts = append(snap.Alerts, Alert{Rule: "node-unreachable", Node: ns.Node, Detail: ns.Err})
			continue
		}
		sums := map[string]float64{}
		for key, v := range ns.Series {
			fam := key
			if i := strings.IndexByte(fam, '{'); i >= 0 {
				fam = fam[:i]
			}
			for _, want := range rateFamilies {
				if fam == want {
					sums[want] += v
				}
			}
			if fam == obs.MetricBFEpoch {
				epochs = append(epochs, struct {
					node string
					v    float64
				}{ns.Node, v})
			}
		}
		if prev, ok := p.prev[ns.Node]; ok {
			dt := snap.At.Sub(prev.at).Seconds()
			if dt > 0 {
				ns.Rates = map[string]float64{}
				for fam, cur := range sums {
					d := cur - prev.sums[fam]
					if d < 0 { // counter reset (node restart)
						d = cur
					}
					ns.Rates[fam] = d / dt
					snap.Rates[fam] += d / dt
				}
			}
		}
		p.prev[ns.Node] = nodeSample{at: snap.At, sums: sums}

		switch status := nodeStatus(ns); status {
		case "degraded":
			if worst < 1 {
				worst = 1
			}
			snap.Alerts = append(snap.Alerts, Alert{Rule: "node-degraded", Node: ns.Node, Detail: healthDetail(ns)})
		case "unhealthy":
			worst = 2
			snap.Alerts = append(snap.Alerts, Alert{Rule: "node-unhealthy", Node: ns.Node, Detail: healthDetail(ns)})
		}
	}
	p.mu.Unlock()

	if rate := snap.Rates[obs.MetricVerifySheds]; rate > p.cfg.ShedRatePerSec {
		snap.Alerts = append(snap.Alerts, Alert{
			Rule:   "fleet-shed-rate",
			Detail: fmt.Sprintf("fleet shedding %.1f Interests/s (limit %.1f) — distributed brute-force pressure", rate, p.cfg.ShedRatePerSec),
			Value:  rate,
		})
	}
	if len(epochs) > 1 {
		min, max := epochs[0], epochs[0]
		for _, e := range epochs[1:] {
			if e.v < min.v {
				min = e
			}
			if e.v > max.v {
				max = e
			}
		}
		if max.v != min.v {
			snap.Alerts = append(snap.Alerts, Alert{
				Rule: "bf-epoch-skew", Node: min.node,
				Detail: fmt.Sprintf("BF epoch skew: %s at %v while %s at %v — a rotation did not reach every node", min.node, min.v, max.node, max.v),
				Value:  max.v - min.v,
			})
		}
	}
	snap.Worst = [...]string{"ready", "degraded", "unhealthy"}[worst]
	if p.cfg.Logf != nil {
		for _, a := range snap.Alerts {
			p.cfg.Logf("alert %s node=%s %s", a.Rule, a.Node, a.Detail)
		}
	}
}

// nodeStatus reads a node's self-reported health status.
func nodeStatus(ns *NodeSnapshot) string {
	if ns.Health == nil {
		return "ready" // node predates /healthz; metrics-only
	}
	return ns.Health.Status
}

// healthDetail summarises a node's health reasons for an alert line.
func healthDetail(ns *NodeSnapshot) string {
	if ns.Health == nil || len(ns.Health.Reasons) == 0 {
		return "no detail"
	}
	parts := make([]string, 0, len(ns.Health.Reasons))
	for _, r := range ns.Health.Reasons {
		parts = append(parts, r.Rule+": "+r.Detail)
	}
	return strings.Join(parts, "; ")
}
