package forwarder

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/obs"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/transport"
	"github.com/tactic-icn/tactic/internal/transport/chaos"
)

// fastRetry keeps reconnect backoff test-sized.
var fastRetry = RetryConfig{Base: 10 * time.Millisecond, Cap: 100 * time.Millisecond}

// faultNet is a live client—edge—core—producer topology whose
// edge→core and core→producer links are managed uplinks, and whose core
// can be killed and restarted on the same address mid-test.
type faultNet struct {
	t        *testing.T
	registry *pki.Registry
	producer *Producer
	prefix   names.Name
	prodAddr string

	coreAddr string
	coreFwd  *Forwarder
	coreLn   transport.FaceListener

	edgeFwd  *Forwarder
	edgeLn   transport.FaceListener
	edgeAddr string
	edgeObs  *obs.Registry
	uplink   *Uplink

	cleanup []func()
}

// startFaultNet boots the topology. dial, when non-nil, replaces the
// edge uplink's dialer (chaos injection).
func startFaultNet(t *testing.T, dial func(string) (net.Conn, error)) *faultNet {
	t.Helper()
	return startFaultNetCfg(t, dial, nil)
}

// startFaultNetCfg is startFaultNet with a hook to adjust the edge
// forwarder's config before boot (verify budgets, TACTIC knobs).
func startFaultNetCfg(t *testing.T, dial func(string) (net.Conn, error), mod func(*Config)) *faultNet {
	t.Helper()
	fn := &faultNet{t: t, prefix: names.MustParse("/prov0")}

	provKey, err := pki.GenerateECDSA(rand.Reader, names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	fn.registry = pki.NewRegistry()
	if err := fn.registry.Register(provKey.Locator(), provKey.Public()); err != nil {
		t.Fatal(err)
	}
	provider, err := core.NewProvider(fn.prefix, provKey, time.Minute, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	fn.producer, err = NewProducer(provider, fn.registry, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	// One tiny chunk per request so every fetch traverses the full path
	// at most once per name and caches never mask an outage.
	soak := bytes.Repeat([]byte("0123456789abcdef"), 400) // 400 chunks of 16 B
	if _, err := fn.producer.PublishObject("soak", 2, soak, 16); err != nil {
		t.Fatal(err)
	}

	prodLn, err := transport.ListenFace("127.0.0.1:0", transport.UDPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go fn.producer.ServeFaces(prodLn) //nolint:errcheck // exits on close
	fn.prodAddr = prodLn.Addr().String()
	fn.cleanup = append(fn.cleanup, func() { prodLn.Close(); fn.producer.Close() })

	fn.startCore("127.0.0.1:0")

	fn.edgeObs = obs.NewRegistry()
	edgeCfg := Config{
		ID: "edge-0", Role: RoleEdge, Registry: fn.registry, Seed: 2,
		WriteTimeout: 2 * time.Second, Obs: fn.edgeObs,
	}
	if mod != nil {
		mod(&edgeCfg)
	}
	fn.edgeFwd, err = New(edgeCfg)
	if err != nil {
		t.Fatal(err)
	}
	fn.edgeLn, err = transport.ListenFace("127.0.0.1:0", transport.UDPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go fn.edgeFwd.ServeFaces(fn.edgeLn) //nolint:errcheck
	fn.edgeAddr = fn.edgeLn.Addr().String()
	fn.uplink, err = fn.edgeFwd.ManageUpstream(UplinkConfig{
		Addr: fn.coreAddr, Routes: []names.Name{fn.prefix}, Retry: fastRetry, Dial: dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !fn.uplink.WaitUp(5 * time.Second) {
		t.Fatal("edge uplink never attached")
	}
	fn.cleanup = append(fn.cleanup, func() { fn.edgeLn.Close(); fn.edgeFwd.Close() })
	return fn
}

// startCore (re)starts the core router; addr is "127.0.0.1:0" for the
// first boot and the recorded coreAddr for a restart.
func (fn *faultNet) startCore(addr string) {
	fn.t.Helper()
	fwd, err := New(Config{
		ID: "core-0", Role: RoleCore, Registry: fn.registry, Seed: 1,
		WriteTimeout: 2 * time.Second,
	})
	if err != nil {
		fn.t.Fatal(err)
	}
	ln, err := transport.ListenFace(addr, transport.UDPOptions{})
	if err != nil {
		fn.t.Fatal(err)
	}
	go fwd.ServeFaces(ln) //nolint:errcheck
	up, err := fwd.ManageUpstream(UplinkConfig{
		Addr: fn.prodAddr, Routes: []names.Name{fn.prefix}, Retry: fastRetry,
	})
	if err != nil {
		fn.t.Fatal(err)
	}
	if !up.WaitUp(5 * time.Second) {
		fn.t.Fatal("core uplink never attached")
	}
	fn.coreFwd, fn.coreLn, fn.coreAddr = fwd, ln, ln.Addr().String()
}

// killCore stops the core router, severing the edge's uplink.
func (fn *faultNet) killCore() {
	fn.coreLn.Close()
	fn.coreFwd.Close()
	fn.coreFwd, fn.coreLn = nil, nil
}

func (fn *faultNet) Close() {
	if fn.coreFwd != nil {
		fn.killCore()
	}
	for i := len(fn.cleanup) - 1; i >= 0; i-- {
		fn.cleanup[i]()
	}
}

// enrolledClient dials an enrolled client into the edge and primes its
// tag so the soak loops never race registration.
func (fn *faultNet) enrolledClient(name string) *Client {
	fn.t.Helper()
	key, err := pki.GenerateECDSA(rand.Reader, names.MustNew("users", name, "KEY", "1"))
	if err != nil {
		fn.t.Fatal(err)
	}
	identity, err := core.NewClient(key, rand.Reader)
	if err != nil {
		fn.t.Fatal(err)
	}
	fn.producer.Provider().Enroll(identity.KeyLocator(), key.Public(), 3)
	cl, err := Dial(fn.edgeAddr, identity, name, "edge-0")
	if err != nil {
		fn.t.Fatal(err)
	}
	if err := cl.Register(fn.prefix, 5*time.Second); err != nil {
		cl.Close()
		fn.t.Fatal(err)
	}
	return cl
}

// fetchRange fetches soak chunks [from, to) once each and returns the
// delivered count.
func fetchRange(c *Client, prefix names.Name, from, to int, timeout time.Duration) int {
	ok := 0
	for i := from; i < to; i++ {
		if _, err := c.Fetch(prefix.MustAppend("soak", "chunk"+strconv.Itoa(i)), timeout); err == nil {
			ok++
		}
	}
	return ok
}

// scrapeMetric sums every series of one family on a /metrics endpoint.
func scrapeMetric(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sum := 0.0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if !strings.HasPrefix(rest, "{") && !strings.HasPrefix(rest, " ") {
			continue // longer name sharing the prefix
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("bad metric line %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// TestLiveFailoverSoak is the acceptance scenario: kill and restart the
// core router under a live client workload, and require the edge's
// managed uplink to reattach, routes to reinstall, and the delivery
// ratio to recover — all asserted on /metrics.
func TestLiveFailoverSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("live soak in -short mode")
	}
	fn := startFaultNet(t, nil)
	defer fn.Close()

	admin, err := obs.Serve("127.0.0.1:0", obs.NewAdminMux(fn.edgeObs, func() any { return fn.edgeFwd.Status() }))
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	metrics := "http://" + admin.Addr().String()

	alice := fn.enrolledClient("alice")
	defer alice.Close()

	const batch = 30
	preOK := fetchRange(alice, fn.prefix, 0, batch, 2*time.Second)
	if preOK < batch*9/10 {
		t.Fatalf("pre-kill delivery %d/%d; network unhealthy before the fault", preOK, batch)
	}

	fn.killCore()
	// A few fetches during the outage: they fail fast (no_route at the
	// edge once the uplink detaches its FIB entries) or burn their
	// retransmit budget — either way the client survives to recover.
	outageOK := fetchRange(alice, fn.prefix, batch, batch+5, 300*time.Millisecond)

	fn.startCore(fn.coreAddr)
	if !fn.uplink.WaitUp(5 * time.Second) {
		t.Fatal("edge uplink did not reattach after core restart")
	}

	postOK := fetchRange(alice, fn.prefix, 2*batch, 3*batch, 2*time.Second)
	t.Logf("delivery: pre %d/%d, outage %d/5, post %d/%d; client %+v",
		preOK, batch, outageOK, postOK, batch, alice.Stats())
	if postOK*10 < preOK*9 {
		t.Errorf("delivery did not recover: post %d/%d vs pre %d/%d", postOK, batch, preOK, batch)
	}

	if v := scrapeMetric(t, metrics, obs.MetricUplinkConnects); v < 2 {
		t.Errorf("%s = %v, want >= 2 (initial attach + reattach)", obs.MetricUplinkConnects, v)
	}
	if v := scrapeMetric(t, metrics, obs.MetricUplinkDown); v < 1 {
		t.Errorf("%s = %v, want >= 1", obs.MetricUplinkDown, v)
	}
	if v := scrapeMetric(t, metrics, obs.MetricUplinkUp); v != 1 {
		t.Errorf("%s = %v, want 1 after recovery", obs.MetricUplinkUp, v)
	}
	if v := scrapeMetric(t, metrics, obs.MetricRoutesDetached); v < 1 {
		t.Errorf("%s = %v, want >= 1", obs.MetricRoutesDetached, v)
	}
	if v := alice.Stats().Retransmits; v < 1 {
		t.Errorf("client retransmits = %v, want >= 1 (outage fetches retransmit)", v)
	}
}

// TestLiveChaosSoak runs the client workload over an edge uplink that
// drops and occasionally resets frames; retransmission and uplink
// supervision must hold delivery high anyway.
func TestLiveChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("live soak in -short mode")
	}
	dial := chaos.Dialer(chaos.Config{Seed: 42, Drop: 0.1, Reset: 0.005})
	fn := startFaultNet(t, dial)
	defer fn.Close()

	alice := fn.enrolledClient("alice")
	defer alice.Close()

	const total = 60
	ok := fetchRange(alice, fn.prefix, 0, total, 2*time.Second)
	st := alice.Stats()
	t.Logf("chaos delivery %d/%d; client %+v", ok, total, st)
	if ok*10 < total*9 {
		t.Errorf("delivery under chaos = %d/%d, want >= 90%%", ok, total)
	}
	if fn.uplink.Up() == false && !fn.uplink.WaitUp(5*time.Second) {
		t.Error("uplink wedged down after chaos soak")
	}
}

// TestLiveFaceChurn hammers the edge with short-lived downstream
// connections while a real client fetches, then checks nothing leaked:
// delivery still works, the FIB holds only the uplink route, and the
// goroutine count settles back after everything closes.
func TestLiveFaceChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("live churn test in -short mode")
	}
	base := runtime.NumGoroutine()

	fn := startFaultNet(t, nil)
	alice := fn.enrolledClient("alice")

	done := make(chan int)
	go func() { done <- fetchRange(alice, fn.prefix, 0, 40, 2*time.Second) }()

	for i := 0; i < 40; i++ {
		raw, err := net.Dial("tcp", fn.edgeAddr)
		if err != nil {
			t.Fatal(err)
		}
		conn := transport.New(raw)
		if i%2 == 0 {
			// Half the churners die mid-conversation, after a packet.
			conn.SendInterest(&ndn.Interest{ //nolint:errcheck
				Name: fn.prefix.MustAppend("soak", "chunk0"), Kind: ndn.KindContent, Nonce: uint64(1000 + i),
			})
		}
		conn.Close()
	}

	if ok := <-done; ok*10 < 40*9 {
		t.Errorf("delivery under churn = %d/40, want >= 90%%", ok)
	}

	// Every churned face must be gone; only the client face and the
	// uplink remain, and the FIB holds exactly the uplink route.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := fn.edgeFwd.Status()
		if len(st.Faces) == 2 && st.FIBEntries == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stale state after churn: %d faces, %d routes", len(st.Faces), st.FIBEntries)
		}
		time.Sleep(10 * time.Millisecond)
	}

	alice.Close()
	fn.Close()

	// Everything is closed; the goroutine count must come back down
	// (readers, supervisors, keepalive tickers all exit).
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+3 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
