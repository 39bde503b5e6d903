package forwarder

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/obs"
)

// metricValue extracts the first sample of a metric family from a
// Prometheus text exposition, summed over label sets.
func metricValue(t *testing.T, exposition, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `(?:\{[^}]*\})? ([0-9eE.+-]+)$`)
	var sum float64
	matches := re.FindAllStringSubmatch(exposition, -1)
	if matches == nil {
		t.Fatalf("metric %s absent from exposition", name)
	}
	for _, m := range matches {
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatalf("metric %s: bad sample %q", name, m[1])
		}
		sum += v
	}
	return sum
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestAdminEndpointsOnLiveNetwork drives real traffic through a
// client—edge—core—producer deployment and scrapes the edge's admin
// endpoint, asserting the enforcement-pipeline counters moved.
func TestAdminEndpointsOnLiveNetwork(t *testing.T) {
	edgeReg := obs.NewRegistry()
	coreReg := obs.NewRegistry()
	prodReg := obs.NewRegistry()
	n := startLiveNetworkObs(t, time.Minute, edgeReg, coreReg, prodReg)
	defer n.Close()

	edgeSrv := httptest.NewServer(obs.NewAdminMux(edgeReg, func() any { return n.edgeFwd.Status() }))
	defer edgeSrv.Close()
	prodSrv := httptest.NewServer(obs.NewAdminMux(prodReg, func() any { return n.producer.Status() }))
	defer prodSrv.Close()

	// Authorized traffic: alice (level 3) fetches a level-2 object.
	alice := n.newLiveClient(t, "alice", 3)
	defer alice.Close()
	if _, _, err := alice.FetchObject(n.prefix.MustAppend("report"), liveTimeout); err != nil {
		t.Fatal(err)
	}

	// Unauthorized traffic: mallory (level 1) hits the edge's warm
	// content store, where Protocol 1's content pre-check NACKs the
	// level-2 object, so the rejection counters move too.
	mallory := n.newLiveClient(t, "mallory", 1)
	defer mallory.Close()
	if _, err := mallory.Fetch(n.prefix.MustAppend("report", "manifest"), liveTimeout); !errors.Is(err, ErrNACK) {
		t.Fatalf("mallory fetch err = %v, want ErrNACK", err)
	}

	// Reset the edge's Bloom filter (as Protocol 2 does on saturation):
	// alice's next CS hit misses the filter and forces a full signature
	// verification at the edge.
	n.edgeFwd.mu.Lock()
	n.edgeFwd.tactic.Bloom().Reset()
	n.edgeFwd.mu.Unlock()
	if _, err := alice.Fetch(n.prefix.MustAppend("report", "manifest"), liveTimeout); err != nil {
		t.Fatal(err)
	}

	// The edge exposition shows pipeline activity: Interests flowed, the
	// Bloom filter was consulted and reset, a tag signature was
	// verified, the CS served hits, and mallory's request was NACKed for
	// insufficient access level.
	exposition := httpGet(t, edgeSrv.URL+"/metrics")
	for metric, min := range map[string]float64{
		obs.MetricInterests:     4, // manifest + 3 chunks, at minimum
		obs.MetricData:          4,
		obs.MetricBFLookups:     1,
		obs.MetricBFResets:      1,
		obs.MetricVerifications: 1,
		obs.MetricCSHits:        1,
		obs.MetricFaceFrames:    8,
		obs.MetricFaceFlushes:   1,
		obs.MetricPITEntries:    0,
	} {
		if got := metricValue(t, exposition, metric); got < min {
			t.Errorf("%s = %v, want >= %v", metric, got, min)
		}
	}
	if got := metricValue(t, exposition, obs.MetricNACKs+`{reason="level",role="edge"}`); got < 1 {
		t.Errorf("level NACKs = %v, want >= 1", got)
	}
	if !strings.Contains(exposition, "# TYPE "+obs.MetricHopSeconds+" histogram") {
		t.Error("hop latency histogram missing TYPE line")
	}
	if got := metricValue(t, exposition, obs.MetricHopSeconds+"_count"); got < 4 {
		t.Errorf("hop histogram count = %v, want >= 4", got)
	}
	if got := alice.Stats().FetchOK; got < 4 {
		t.Errorf("alice ok fetches = %v, want >= 4", got)
	}

	// The producer served alice's misses and issued both tags.
	prodExposition := httpGet(t, prodSrv.URL+"/metrics")
	if got := metricValue(t, prodExposition, obs.MetricCSHits+`{role="producer"}`); got < 4 {
		t.Errorf("producer served = %v, want >= 4", got)
	}
	if got := metricValue(t, prodExposition, obs.MetricRegistrations+`{result="issued",role="producer"}`); got < 2 {
		t.Errorf("registrations issued = %v, want >= 2", got)
	}

	// /statusz reflects the same state as a JSON document.
	var statusz struct {
		UptimeSeconds float64            `json:"uptime_seconds"`
		Metrics       map[string]float64 `json:"metrics"`
		Status        Status             `json:"status"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, edgeSrv.URL+"/statusz")), &statusz); err != nil {
		t.Fatal(err)
	}
	if statusz.UptimeSeconds < 0 {
		t.Errorf("uptime = %v, want >= 0", statusz.UptimeSeconds)
	}
	if statusz.Status.Role != "edge" || statusz.Status.ID != "edge-0" {
		t.Errorf("status identity = %s/%s, want edge-0/edge", statusz.Status.ID, statusz.Status.Role)
	}
	if statusz.Status.Counters.Interests < 4 {
		t.Errorf("status interests = %d, want >= 4", statusz.Status.Counters.Interests)
	}
	if statusz.Status.Bloom.Lookups < 1 {
		t.Errorf("status bloom lookups = %d, want >= 1", statusz.Status.Bloom.Lookups)
	}
	if len(statusz.Status.Faces) == 0 {
		t.Error("status lists no faces")
	}
	var flushes uint64
	for _, fs := range statusz.Status.Faces {
		flushes += fs.Stats.Flushes
	}
	if flushes == 0 {
		t.Error("status faces report no flushes beside their frames")
	}
	if len(statusz.Metrics) == 0 {
		t.Error("statusz carries no metrics snapshot")
	}

	// pprof is mounted.
	if body := httpGet(t, edgeSrv.URL+"/debug/pprof/cmdline"); body == "" {
		t.Error("pprof cmdline returned nothing")
	}
}
