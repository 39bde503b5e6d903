package fleet

import (
	"bytes"
	"crypto/rand"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/forwarder"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/obs"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/transport"
)

func TestParsePromText(t *testing.T) {
	text := `# HELP tactic_interests_total Interests entering the pipeline.
# TYPE tactic_interests_total counter
tactic_interests_total{role="edge"} 42
# TYPE tactic_bf_fpp gauge
tactic_bf_fpp{role="edge"} 1e-04
# TYPE weird gauge
weird{path="C:\\tmp",msg="a\nb"} NaN
# TYPE lat histogram
lat_bucket{le="0.1"} 3
# exemplar lat_bucket{le="0.1"} trace=00ff
lat_bucket{le="+Inf"} 5
lat_sum 0.9
lat_count 5
plain 7
`
	exp, err := ParsePromText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Samples) != 8 {
		t.Fatalf("samples = %d, want 8", len(exp.Samples))
	}
	if exp.Help["tactic_interests_total"] == "" || exp.Types["lat"] != "histogram" {
		t.Fatalf("meta missing: %+v %+v", exp.Help, exp.Types)
	}
	byKey := map[string]Sample{}
	for _, s := range exp.Samples {
		byKey[s.Key()] = s
	}
	if byKey[`tactic_interests_total{role="edge"}`].Value != 42 {
		t.Fatalf("counter sample missing: %v", byKey)
	}
	w := byKey[`weird{msg="a\nb",path="C:\\tmp"}`]
	if w.Labels["path"] != `C:\tmp` || w.Labels["msg"] != "a\nb" || !math.IsNaN(w.Value) {
		t.Fatalf("escaped labels mangled: %+v", w)
	}
	if byKey["plain"].Value != 7 {
		t.Fatalf("bare sample missing")
	}
	if byKey["lat_count"].Value != 5 {
		t.Fatalf("histogram count sample missing: %v", byKey)
	}
}

// TestMetricsLint is the `make metrics-lint` gate over a live scrape:
// one registry holds an edge with a stream face attached, a core it
// reaches through a managed udp:// uplink and serves on an instrumented
// UDP endpoint, and a producer. Every exported family, TYPE and label
// key must be declared in obs's catalogue, each with the catalogue's
// HELP text, and every catalogue family must be exported by one of them.
func TestMetricsLint(t *testing.T) {
	reg := obs.NewRegistry()
	preg := pki.NewRegistry()
	newFwd := func(id string, role forwarder.Role) *forwarder.Forwarder {
		fwd, err := forwarder.New(forwarder.Config{
			ID: id, Role: role, Registry: preg, Seed: 1, Obs: reg,
			Events: obs.NewEvents(id, 64), Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fwd.Close() })
		return fwd
	}

	coreFwd := newFwd("core-0", forwarder.RoleCore)
	ep, err := transport.ListenUDP("127.0.0.1:0", transport.UDPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	ep.Instrument(reg, obs.L("role", "core"))
	go coreFwd.ServeFaces(ep) //nolint:errcheck // exits on close

	edge := newFwd("edge-0", forwarder.RoleEdge)
	a, b := net.Pipe()
	t.Cleanup(func() { b.Close() })
	edge.AddFace(transport.New(a), true)
	uplink, err := edge.ManageUpstream(forwarder.UplinkConfig{
		Addr:   "udp://" + ep.Addr().String(),
		Routes: []names.Name{names.MustParse("/lintprov")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !uplink.WaitUp(5 * time.Second) {
		t.Fatal("edge uplink never attached")
	}

	provKey, err := pki.GenerateECDSA(rand.Reader, names.MustParse("/lintprov/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := preg.Register(provKey.Locator(), provKey.Public()); err != nil {
		t.Fatal(err)
	}
	provider, err := core.NewProvider(names.MustParse("/lintprov"), provKey, time.Minute, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := forwarder.NewProducerWithConfig(provider, forwarder.Config{Registry: preg, Logf: t.Logf, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { prod.Close() })

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := ParsePromText(&buf)
	if err != nil {
		t.Fatalf("live exposition does not parse: %v", err)
	}
	specs := map[string]obs.FamilySpec{}
	for _, spec := range obs.Catalogue() {
		specs[spec.Name] = spec
	}
	for fam, typ := range exp.Types {
		spec, ok := specs[fam]
		switch {
		case !ok:
			t.Errorf("exported family %s is not in the catalogue", fam)
		case typ != spec.Type:
			t.Errorf("%s exported as %s, declared %s", fam, typ, spec.Type)
		case exp.Help[fam] != spec.Help:
			t.Errorf("%s HELP %q, declared %q", fam, exp.Help[fam], spec.Help)
		}
	}
	for _, s := range exp.Samples {
		fam := s.Name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(s.Name, suffix); ok && specs[base].Type == "histogram" {
				fam = base
			}
		}
		spec, ok := specs[fam]
		if !ok {
			t.Errorf("exported series %s is not in a catalogue family", s.Key())
			continue
		}
		for key := range s.Labels {
			if !slices.Contains(spec.Labels, key) && (key != "le" || s.Name != fam+"_bucket") {
				t.Errorf("%s: label key %q is not declared for %s", s.Key(), key, fam)
			}
		}
	}
	for name := range specs {
		if _, ok := exp.Types[name]; !ok {
			t.Errorf("catalogue family %s is exported by no part of the live stack", name)
		}
	}
}

// fakeNode serves a crafted admin surface for poller tests.
type fakeNode struct {
	srv     *httptest.Server
	metrics func() string
	health  func() (int, obs.HealthReport)
	events  []obs.Event
}

func newFakeNode(t *testing.T, metrics func() string) *fakeNode {
	t.Helper()
	fn := &fakeNode{metrics: metrics}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, fn.metrics())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		code, hr := http.StatusOK, obs.HealthReport{Status: "ready"}
		if fn.health != nil {
			code, hr = fn.health()
		}
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(hr) //nolint:errcheck
	})
	mux.HandleFunc("/eventz", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"events": fn.events}) //nolint:errcheck
	})
	fn.srv = httptest.NewServer(mux)
	t.Cleanup(fn.srv.Close)
	return fn
}

func (fn *fakeNode) addr() string { return strings.TrimPrefix(fn.srv.URL, "http://") }

func TestPollerMergesRatesAndAlerts(t *testing.T) {
	sheds := 0.0
	a := newFakeNode(t, func() string {
		return fmt.Sprintf(`# TYPE tactic_verify_sheds_total counter
tactic_verify_sheds_total{role="edge"} %g
# TYPE tactic_bf_epoch gauge
tactic_bf_epoch{role="edge"} 1
# TYPE tactic_face_frames_total counter
tactic_face_frames_total{dir="in",face="2",link="downstream"} 10
tactic_face_frames_total{dir="out",face="2",link="downstream"} 4
`, sheds)
	})
	b := newFakeNode(t, func() string {
		return "# TYPE tactic_bf_epoch gauge\ntactic_bf_epoch{role=\"core\"} 3\n"
	})
	b.health = func() (int, obs.HealthReport) {
		return http.StatusOK, obs.HealthReport{
			Status:  "degraded",
			Reasons: []obs.HealthReason{{Rule: "shed-burn", Severity: "degraded", Detail: "shedding"}},
		}
	}
	b.events = []obs.Event{{Seq: 1, Type: obs.EventShedBurst, Face: 3, Attr: "verify_overload", Value: 9}}

	at := time.Unix(1000, 0)
	p := NewPoller(Config{
		Nodes:          []Node{{Name: "edge-0", Addr: a.addr()}, {Name: "core-0", Addr: b.addr()}, {Name: "ghost", Addr: "127.0.0.1:1"}},
		ShedRatePerSec: 10,
		Now:            func() time.Time { return at },
	})

	snap := p.PollOnce(t.Context())
	if snap.Worst != "unhealthy" { // ghost unreachable
		t.Fatalf("worst = %q, want unhealthy (ghost down)", snap.Worst)
	}
	if !hasAlert(snap, "node-unreachable", "ghost") || !hasAlert(snap, "node-degraded", "core-0") {
		t.Fatalf("alerts = %+v", snap.Alerts)
	}
	if !hasAlert(snap, "bf-epoch-skew", "edge-0") {
		t.Fatalf("no epoch-skew alert: %+v", snap.Alerts)
	}
	if len(snap.Nodes[0].Faces) != 1 || snap.Nodes[0].Faces[0].FramesIn != 10 || snap.Nodes[0].Faces[0].FramesOut != 4 {
		t.Fatalf("face table = %+v", snap.Nodes[0].Faces)
	}
	if len(snap.Nodes[1].Events) != 1 || snap.Nodes[1].Events[0].Type != obs.EventShedBurst {
		t.Fatalf("events = %+v", snap.Nodes[1].Events)
	}

	// Second poll 2s later: 60 more sheds → 30/s, over the 10/s limit.
	sheds = 60
	at = at.Add(2 * time.Second)
	snap = p.PollOnce(t.Context())
	if got := snap.Nodes[0].Rates["tactic_verify_sheds_total"]; got != 30 {
		t.Fatalf("edge-0 shed rate = %v, want 30", got)
	}
	if !hasAlert(snap, "fleet-shed-rate", "") {
		t.Fatalf("no fleet-shed-rate alert: %+v", snap.Alerts)
	}

	// Dashboard + fleetz render from the same snapshot.
	mux := http.NewServeMux()
	p.Attach(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	for _, path := range []string{"/", "/fleetz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body := make([]byte, 1<<20)
		n, _ := resp.Body.Read(body)
		resp.Body.Close()
		for _, want := range []string{"edge-0", "core-0", "fleet-shed-rate"} {
			if !strings.Contains(string(body[:n]), want) {
				t.Fatalf("%s missing %q:\n%s", path, want, body[:n])
			}
		}
	}
}

func hasAlert(snap *FleetSnapshot, rule, node string) bool {
	for _, a := range snap.Alerts {
		if a.Rule == rule && (node == "" || a.Node == node) {
			return true
		}
	}
	return false
}

func TestArchiverAppendsJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.jsonl")
	ar, err := NewArchiver(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := ar.Append(&FleetSnapshot{Worst: "ready", At: time.Unix(int64(i), 0)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 3 {
		t.Fatalf("archive lines = %d, want 3", len(lines))
	}
	var snap FleetSnapshot
	if err := json.Unmarshal([]byte(lines[2]), &snap); err != nil || snap.Worst != "ready" {
		t.Fatalf("archive line malformed: %v %+v", err, snap)
	}
}
