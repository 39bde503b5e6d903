package fleet

import (
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/forwarder"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/obs"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/transport"
)

// liveNode is one forwarder with its full admin surface (metrics,
// healthz, eventz) served over real HTTP — what tacticd assembles.
type liveNode struct {
	name   string
	fwd    *forwarder.Forwarder
	reg    *obs.Registry
	ev     *obs.Events
	health *obs.Health
	ln     transport.FaceListener // forwarding listener
	admin  net.Listener
}

func (n *liveNode) adminAddr() string { return n.admin.Addr().String() }

// slowVerify models the paper's 100µs-class crypto as latency so one
// verify worker is saturable without burning the CI box's CPU.
type slowVerify struct {
	inner pki.Verifier
	d     time.Duration
}

func (s slowVerify) Verify(locator names.Name, msg, sig []byte) error {
	time.Sleep(s.d)
	return s.inner.Verify(locator, msg, sig)
}

// startLiveNode boots one forwarder plus admin endpoint.
func startLiveNode(t *testing.T, name string, role forwarder.Role, reg *pki.Registry, hcfg obs.HealthConfig, mod func(*forwarder.Config)) *liveNode {
	t.Helper()
	n := &liveNode{name: name, reg: obs.NewRegistry(), ev: obs.NewEvents(name, 256)}
	cfg := forwarder.Config{
		ID: name, Role: role, Registry: reg, Seed: int64(len(name)),
		WriteTimeout: 2 * time.Second, Obs: n.reg, Events: n.ev,
	}
	if mod != nil {
		mod(&cfg)
	}
	fwd, err := forwarder.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.fwd = fwd
	n.health = obs.NewHealth(n.reg, name, hcfg, n.ev)

	n.ln, err = transport.ListenFace("127.0.0.1:0", transport.UDPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go fwd.ServeFaces(n.ln) //nolint:errcheck // exits on close

	mux := obs.NewAdminMux(n.reg, func() any { return fwd.Status() })
	obs.AttachEventz(mux, n.ev)
	obs.AttachHealthz(mux, n.health)
	n.admin, err = obs.Serve("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		n.admin.Close()
		n.ln.Close()
		fwd.Close()
	})
	return n
}

// TestFleetLiveThreeNodeScrape is the tentpole acceptance scenario: a
// live 3-node topology (two edges uplinked into one core), a verify
// flood against edge-0, and tacticmon's poller scraping all three —
// the merged snapshot must carry per-node series, edge-0 must
// transition to degraded via the shed-burn rule, and the shed_burst
// typed event must be visible through /eventz.
func TestFleetLiveThreeNodeScrape(t *testing.T) {
	if testing.Short() {
		t.Skip("live topology in -short mode")
	}
	preg := pki.NewRegistry()
	prefix := names.MustParse("/prov0")
	hcfg := obs.HealthConfig{ShedRatePerSec: 5, MinWindow: 150 * time.Millisecond}

	coreNode := startLiveNode(t, "core-0", forwarder.RoleCore, preg, hcfg, nil)
	edge0 := startLiveNode(t, "edge-0", forwarder.RoleEdge, preg, hcfg, func(cfg *forwarder.Config) {
		cfg.Tactic.EdgeValidateOnMiss = true
		cfg.Verifier = slowVerify{inner: preg, d: 2 * time.Millisecond}
		cfg.VerifyWorkers = 1
		cfg.VerifyBudget = 8
	})
	edge1 := startLiveNode(t, "edge-1", forwarder.RoleEdge, preg, hcfg, nil)

	fastRetry := forwarder.RetryConfig{Base: 10 * time.Millisecond, Cap: 100 * time.Millisecond}
	for _, edge := range []*liveNode{edge0, edge1} {
		up, err := edge.fwd.ManageUpstream(forwarder.UplinkConfig{
			Addr: coreNode.ln.Addr().String(), Routes: []names.Name{prefix}, Retry: fastRetry,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !up.WaitUp(5 * time.Second) {
			t.Fatalf("%s uplink never attached", edge.name)
		}
	}

	// The flood: forged pre-minted tags cycled over a raw conn, each
	// demanding a verification slot that one 2ms worker cannot supply.
	rogue, err := pki.GenerateECDSA(rand.Reader, names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	pool := make([]*core.Tag, 64)
	for i := range pool {
		pool[i], err = core.IssueTag(rogue,
			names.MustNew("users", fmt.Sprintf("flood%d", i), "KEY", "1"),
			3, core.EmptyAccessPath.Accumulate("edge-0"), time.Now().Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
	}
	raw, err := net.Dial("tcp", edge0.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	flood := transport.New(raw)
	var stop atomic.Bool
	floodDone := make(chan struct{})
	go func() {
		defer close(floodDone)
		const window = 32
		outstanding := 0
		for serial := uint64(1); !stop.Load(); serial++ {
			if err := flood.SendInterest(&ndn.Interest{
				Name:  prefix.MustAppend("soak", "chunk0"),
				Kind:  ndn.KindContent,
				Nonce: 1<<62 | serial,
				Tag:   pool[serial%uint64(len(pool))],
			}); err != nil {
				return
			}
			outstanding++
			if outstanding >= window {
				if _, err := flood.Receive(); err != nil {
					return
				}
				outstanding--
			}
		}
	}()
	defer func() {
		stop.Store(true)
		flood.Close()
		<-floodDone
	}()

	deadline := time.Now().Add(5 * time.Second)
	for edge0.fwd.Stats().VerifySheds == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flood never shed: admission cap not engaged")
		}
		time.Sleep(5 * time.Millisecond)
	}

	p := NewPoller(Config{
		Nodes: []Node{
			{Name: "core-0", Addr: coreNode.adminAddr()},
			{Name: "edge-0", Addr: edge0.adminAddr()},
			{Name: "edge-1", Addr: edge1.adminAddr()},
		},
		Interval:       200 * time.Millisecond,
		ShedRatePerSec: 5,
	})

	// Poll until the fault is visible end to end: every node scraped
	// with its own series, edge-0 degraded by shed-burn, the shed_burst
	// event in its /eventz tail, and the fleet alerts raised.
	var snap *FleetSnapshot
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		snap = p.PollOnce(t.Context())
		if fleetFaultVisible(snap) {
			break
		}
		time.Sleep(200 * time.Millisecond)
	}
	if snap == nil || !fleetFaultVisible(snap) {
		t.Fatalf("fault never became visible; last snapshot: %s", mustJSON(snap))
	}

	for _, ns := range snap.Nodes {
		if ns.Err != "" {
			t.Fatalf("node %s unreachable: %s", ns.Node, ns.Err)
		}
		if v, ok := ns.Series[`tactic_faces{role="`+roleOf(ns.Node)+`"}`]; !ok || v < 1 {
			t.Fatalf("node %s missing live faces gauge: %v %v", ns.Node, v, ok)
		}
	}
	edge := nodeByName(snap, "edge-0")
	if edge.Health == nil || edge.Health.Status == "ready" {
		t.Fatalf("edge-0 health = %+v, want degraded", edge.Health)
	}
	if !hasReason(edge.Health, "shed-burn") {
		t.Fatalf("edge-0 reasons lack shed-burn: %+v", edge.Health.Reasons)
	}
	if !hasAlert(snap, "node-degraded", "edge-0") && !hasAlert(snap, "node-unhealthy", "edge-0") {
		t.Fatalf("no degraded alert for edge-0: %+v", snap.Alerts)
	}
	if len(nodeByName(snap, "edge-0").Faces) == 0 {
		t.Fatal("edge-0 per-face table empty")
	}
	if snap.Worst == "ready" {
		t.Fatalf("fleet rollup = %q with a degraded edge", snap.Worst)
	}
	var sawShedEvent, sawFaceUp bool
	for _, e := range edge.Events {
		switch e.Type {
		case obs.EventShedBurst:
			sawShedEvent = true
		case obs.EventFaceUp, obs.EventUplinkUp:
			sawFaceUp = true
		}
	}
	if !sawShedEvent {
		t.Fatalf("edge-0 /eventz lacks shed_burst: %+v", edge.Events)
	}
	if !sawFaceUp {
		t.Fatalf("edge-0 /eventz lacks face/uplink up events: %+v", edge.Events)
	}
}

// fleetFaultVisible reports whether the induced fault has propagated
// into a snapshot.
func fleetFaultVisible(snap *FleetSnapshot) bool {
	if snap == nil {
		return false
	}
	edge := nodeByName(snap, "edge-0")
	if edge == nil || edge.Health == nil || edge.Health.Status == "ready" {
		return false
	}
	if !hasReason(edge.Health, "shed-burn") {
		return false
	}
	for _, e := range edge.Events {
		if e.Type == obs.EventShedBurst {
			return true
		}
	}
	return false
}

func nodeByName(snap *FleetSnapshot, name string) *NodeSnapshot {
	for i := range snap.Nodes {
		if snap.Nodes[i].Node == name {
			return &snap.Nodes[i]
		}
	}
	return nil
}

func hasReason(hr *obs.HealthReport, rule string) bool {
	for _, r := range hr.Reasons {
		if r.Rule == rule {
			return true
		}
	}
	return false
}

func roleOf(node string) string {
	if node == "core-0" {
		return "core"
	}
	return "edge"
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%+v", v)
	}
	return string(b)
}

// TestFleetBFWatchdogLive saturates a live forwarder's Bloom filter
// past its configured FPP target, requires the bf-saturation watchdog
// to fire through /healthz, and requires an epoch rotation to clear it.
func TestFleetBFWatchdogLive(t *testing.T) {
	preg := pki.NewRegistry()
	hcfg := obs.HealthConfig{MinWindow: 100 * time.Millisecond}
	node := startLiveNode(t, "edge-0", forwarder.RoleEdge, preg, hcfg, func(cfg *forwarder.Config) {
		cfg.BFCapacity = 64
		cfg.BFMaxFPP = 1e-3
	})
	base := "http://" + node.adminAddr()

	if hr := getHealth(t, base); hr.Status != "ready" {
		t.Fatalf("fresh node health = %+v", hr)
	}

	// Direct Add bypasses the router's auto-reset, saturating the bits
	// the way an un-rotated revocation storm would.
	bf := node.fwd.Tactic().Bloom()
	for i := 0; bf.FPP() < bf.MaxFPP() && i < 100000; i++ {
		bf.Add([]byte(fmt.Sprintf("saturate-%d", i)))
	}
	if bf.FPP() < bf.MaxFPP() {
		t.Fatalf("could not saturate filter: FPP %g target %g", bf.FPP(), bf.MaxFPP())
	}
	hr := getHealth(t, base)
	if hr.Status == "ready" || !hasReason(&hr, "bf-saturation") {
		t.Fatalf("watchdog did not fire: %+v", hr)
	}

	if !node.fwd.Tactic().RotateEpoch(1) {
		t.Fatal("rotate rejected")
	}
	hr = getHealth(t, base)
	if hr.Status != "ready" {
		t.Fatalf("watchdog did not clear after rotation: %+v", hr)
	}

	// The transitions are in the event log.
	var changes []string
	for _, e := range node.ev.Snapshot() {
		if e.Type == obs.EventHealthChange {
			changes = append(changes, e.Attr)
		}
	}
	if len(changes) != 2 {
		t.Fatalf("health_change events = %v, want fire+clear", changes)
	}
}

// getHealth fetches and decodes /healthz (any status code).
func getHealth(t *testing.T, base string) obs.HealthReport {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr obs.HealthReport
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil && !errors.Is(err, nil) {
		t.Fatal(err)
	}
	return hr
}
