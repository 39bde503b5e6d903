package forwarder

import (
	"bytes"
	"crypto/rand"
	"net"
	"strconv"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/obs"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/transport"
	"github.com/tactic-icn/tactic/internal/transport/chaos"
)

// udpNet is faultNet's datagram twin: the same client—edge—core—
// producer topology with every hop carried over udp:// faces. Liveness
// works differently here — there are no FINs or RSTs, so face death is
// keepalive/idle-driven end to end: every forwarder keepalives its
// faces, the edge reaps a silent uplink by idle timeout (which is what
// drives reconnection after a core outage), and the client keepalives
// its own edge face so quiet think time doesn't get it reaped.
type udpNet struct {
	t        *testing.T
	registry *pki.Registry
	producer *Producer
	prefix   names.Name
	prodAddr string // udp://host:port

	coreAddr string // host:port, stable across restarts
	coreFwd  *Forwarder
	coreLn   transport.FaceListener

	edgeFwd  *Forwarder
	edgeLn   transport.FaceListener
	edgeAddr string // host:port
	uplink   *Uplink

	idle    time.Duration
	cleanup []func()
}

// udpKeepalive is the keepalive period every node (and the client)
// uses; idle timeouts must sit a few multiples above it.
const udpKeepalive = 50 * time.Millisecond

// startUDPNet boots the all-UDP topology. dial, when non-nil, replaces
// the edge uplink's dialer (chaos injection). idle sets the edge
// forwarder's IdleTimeout: 0 disables reaping (steady-state tests),
// a positive value arms outage detection (failover test).
func startUDPNet(t *testing.T, dial func(string) (net.Conn, error), idle time.Duration) *udpNet {
	t.Helper()
	un := &udpNet{t: t, prefix: names.MustParse("/prov0"), idle: idle}

	provKey, err := pki.GenerateECDSA(rand.Reader, names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	un.registry = pki.NewRegistry()
	if err := un.registry.Register(provKey.Locator(), provKey.Public()); err != nil {
		t.Fatal(err)
	}
	provider, err := core.NewProvider(un.prefix, provKey, time.Minute, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	un.producer, err = NewProducer(provider, un.registry, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	soak := bytes.Repeat([]byte("0123456789abcdef"), 400) // 400 chunks of 16 B
	if _, err := un.producer.PublishObject("soak", 2, soak, 16); err != nil {
		t.Fatal(err)
	}
	// Chunks well past the 1400 B MTU: every Data crossing every hop
	// must fragment and reassemble.
	big := bytes.Repeat([]byte{0xB1, 0x67, 0xDA, 0x7A}, 1000) // 4000 B per chunk
	if _, err := un.producer.PublishObject("big", 2, bytes.Repeat(big, 12), 4000); err != nil {
		t.Fatal(err)
	}

	prodEP, err := transport.ListenUDP("127.0.0.1:0", transport.UDPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go un.producer.ServeFaces(prodEP) //nolint:errcheck // exits on close
	un.prodAddr = "udp://" + prodEP.Addr().String()
	un.cleanup = append(un.cleanup, func() { prodEP.Close(); un.producer.Close() })

	un.startCore("udp://127.0.0.1:0")

	un.edgeFwd, err = New(Config{
		ID: "edge-0", Role: RoleEdge, Registry: un.registry, Seed: 2,
		WriteTimeout: 2 * time.Second, KeepaliveInterval: udpKeepalive, IdleTimeout: idle,
		Obs: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	un.edgeLn, err = transport.ListenFace("udp://127.0.0.1:0", transport.UDPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go un.edgeFwd.ServeFaces(un.edgeLn) //nolint:errcheck
	un.edgeAddr = un.edgeLn.Addr().String()
	un.uplink, err = un.edgeFwd.ManageUpstream(UplinkConfig{
		Addr: "udp://" + un.coreAddr, Routes: []names.Name{un.prefix}, Retry: fastRetry, Dial: dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !un.uplink.WaitUp(5 * time.Second) {
		t.Fatal("edge uplink never attached")
	}
	un.cleanup = append(un.cleanup, func() { un.edgeLn.Close(); un.edgeFwd.Close() })
	return un
}

// startCore (re)starts the core router on addr ("udp://127.0.0.1:0"
// first boot, "udp://"+coreAddr for a restart on the same port). The
// core never reaps by idle — the producer only ever answers, so a
// quiet core→producer link is healthy, not dead — but it does
// keepalive, which is what feeds the edge's idle timer.
func (un *udpNet) startCore(addr string) {
	un.t.Helper()
	fwd, err := New(Config{
		ID: "core-0", Role: RoleCore, Registry: un.registry, Seed: 1,
		WriteTimeout: 2 * time.Second, KeepaliveInterval: udpKeepalive,
	})
	if err != nil {
		un.t.Fatal(err)
	}
	ln, err := transport.ListenFace(addr, transport.UDPOptions{})
	if err != nil {
		un.t.Fatal(err)
	}
	go fwd.ServeFaces(ln) //nolint:errcheck
	up, err := fwd.ManageUpstream(UplinkConfig{
		Addr: un.prodAddr, Routes: []names.Name{un.prefix}, Retry: fastRetry,
	})
	if err != nil {
		un.t.Fatal(err)
	}
	if !up.WaitUp(5 * time.Second) {
		un.t.Fatal("core uplink never attached")
	}
	un.coreFwd, un.coreLn, un.coreAddr = fwd, ln, ln.Addr().String()
}

// killCore stops the core router. Unlike the TCP topology no RST tells
// the edge: its uplink face just goes silent until the idle timeout
// reaps it.
func (un *udpNet) killCore() {
	un.coreLn.Close()
	un.coreFwd.Close()
	un.coreFwd, un.coreLn = nil, nil
}

func (un *udpNet) Close() {
	if un.coreFwd != nil {
		un.killCore()
	}
	for i := len(un.cleanup) - 1; i >= 0; i-- {
		un.cleanup[i]()
	}
}

// enrolledClient dials an enrolled client into the edge over udp://,
// starts its keepalive (see udpNet doc), and registers its tag.
func (un *udpNet) enrolledClient(name string) *Client {
	un.t.Helper()
	key, err := pki.GenerateECDSA(rand.Reader, names.MustNew("users", name, "KEY", "1"))
	if err != nil {
		un.t.Fatal(err)
	}
	identity, err := core.NewClient(key, rand.Reader)
	if err != nil {
		un.t.Fatal(err)
	}
	un.producer.Enroll(identity.KeyLocator(), key.Public(), 3)
	cl, err := Dial("udp://"+un.edgeAddr, identity, name, "edge-0")
	if err != nil {
		un.t.Fatal(err)
	}
	cl.StartKeepalive(udpKeepalive)
	if err := cl.Register(un.prefix, 5*time.Second); err != nil {
		cl.Close()
		un.t.Fatal(err)
	}
	return cl
}

// TestLiveUDPFetch is the datagram acceptance path: a 3-hop fetch
// (client→edge→core→producer) entirely over udp://, including chunks
// large enough that every Data fragments on every hop.
func TestLiveUDPFetch(t *testing.T) {
	if testing.Short() {
		t.Skip("live UDP test in -short mode")
	}
	un := startUDPNet(t, nil, 0)
	defer un.Close()

	alice := un.enrolledClient("alice")
	defer alice.Close()

	// Sub-MTU chunks first: the plain datagram path.
	if ok := fetchRange(alice, un.prefix, 0, 30, 2*time.Second); ok < 27 {
		t.Fatalf("small-chunk delivery %d/30 over udp", ok)
	}
	// Then the fragmented path: 4000 B chunks over a 1400 B MTU.
	delivered := 0
	for i := 0; i < 12; i++ {
		content, err := alice.Fetch(un.prefix.MustAppend("big", "chunk"+strconv.Itoa(i)), 2*time.Second)
		if err != nil {
			t.Logf("big chunk%d: %v", i, err)
			continue
		}
		// The provider's AEAD grows each chunk past the plaintext size;
		// anything >= the 4000 B plaintext proves the Data outgrew the
		// 1400 B MTU and survived fragmentation on every hop.
		if len(content.Payload) < 4000 {
			t.Fatalf("big chunk%d: %d bytes, want >= 4000", i, len(content.Payload))
		}
		delivered++
	}
	if delivered < 11 {
		t.Fatalf("fragmented delivery %d/12 over udp", delivered)
	}
	// The edge must be holding exactly the two datagram faces this test
	// created: alice's and the uplink's.
	if st := un.edgeFwd.Status(); len(st.Faces) != 2 {
		t.Errorf("edge faces = %d, want 2 (client + uplink)", len(st.Faces))
	}
}

// TestLiveUDPChaosSoak runs the fetch workload while the edge uplink
// drops and reorders datagrams; unlike a stream, a reordered datagram
// face delivers frames out of order to the forwarder, so this also
// exercises PIT matching under reordering. Retransmission must hold
// delivery high anyway.
func TestLiveUDPChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("live UDP soak in -short mode")
	}
	dial := chaos.Dialer(chaos.Config{Seed: 42, Drop: 0.1, Reorder: 0.1, MaxReorderDepth: 4})
	un := startUDPNet(t, dial, 0)
	defer un.Close()

	alice := un.enrolledClient("alice")
	defer alice.Close()

	const total = 60
	ok := fetchRange(alice, un.prefix, 0, total, 2*time.Second)
	st := alice.Stats()
	t.Logf("udp chaos delivery %d/%d; client %+v", ok, total, st)
	if ok*10 < total*9 {
		t.Errorf("delivery under udp chaos = %d/%d, want >= 90%%", ok, total)
	}
	if !un.uplink.Up() && !un.uplink.WaitUp(5*time.Second) {
		t.Error("uplink wedged down after udp chaos soak")
	}
}

// TestLiveUDPFailover kills and restarts the core on the same UDP
// address. With no RST to announce the outage, the edge's uplink face
// must go down via keepalive loss + idle timeout, redial (datagram
// dials "succeed" instantly), and carry traffic again once the core is
// back on the port.
func TestLiveUDPFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("live UDP failover in -short mode")
	}
	un := startUDPNet(t, nil, 400*time.Millisecond)
	defer un.Close()

	alice := un.enrolledClient("alice")
	defer alice.Close()

	const batch = 30
	preOK := fetchRange(alice, un.prefix, 0, batch, 2*time.Second)
	if preOK < batch*9/10 {
		t.Fatalf("pre-kill delivery %d/%d; network unhealthy before the fault", preOK, batch)
	}
	preConnects := un.uplink.connects.Value()
	preDowns := un.uplink.downs.Value()

	un.killCore()
	// Outage fetches fail (dropped datagrams or no_route while the
	// uplink cycles); the client burns retransmits and survives.
	outageOK := fetchRange(alice, un.prefix, batch, batch+5, 300*time.Millisecond)

	// The idle timeout must observe the silence and take the face down
	// at least once before the core returns (event-synced on the down
	// counter rather than a wall-clock guess).
	downDeadline := time.Now().Add(10 * time.Second)
	for un.uplink.downs.Value() <= preDowns {
		if time.Now().After(downDeadline) {
			t.Fatalf("uplink never went down after core kill (downs=%d)", un.uplink.downs.Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
	un.startCore("udp://" + un.coreAddr)

	// Recovery: the uplink needs one more idle cycle (at worst) to shed
	// a dead face dialed during the outage and attach a live one.
	deadline := time.Now().Add(10 * time.Second)
	postOK := 0
	for postOK*10 < preOK*9 && time.Now().Before(deadline) {
		postOK = fetchRange(alice, un.prefix, 2*batch, 3*batch, 2*time.Second)
	}
	t.Logf("udp failover delivery: pre %d/%d, outage %d/5, post %d/%d; uplink connects %d -> %d, downs %d",
		preOK, batch, outageOK, postOK, batch, preConnects, un.uplink.connects.Value(), un.uplink.downs.Value())
	if postOK*10 < preOK*9 {
		t.Errorf("delivery did not recover: post %d/%d vs pre %d/%d", postOK, batch, preOK, batch)
	}
	if got := un.uplink.connects.Value(); got <= preConnects {
		t.Errorf("uplink never reconnected: connects %d -> %d", preConnects, got)
	}
	if un.uplink.downs.Value() < 1 {
		t.Errorf("uplink never observed the outage (downs = %d)", un.uplink.downs.Value())
	}
}

// TestLiveUDPChaosResetRedials runs the fetch workload while the edge
// uplink's datagram conn is reset now and then: a reset closes the conn,
// so the uplink face must end at once and the uplink redial, rather than
// sit on a dead conn until some timeout.
func TestLiveUDPChaosResetRedials(t *testing.T) {
	if testing.Short() {
		t.Skip("live UDP soak in -short mode")
	}
	dial := chaos.Dialer(chaos.Config{Seed: 7, Reset: 0.05})
	un := startUDPNet(t, dial, 0)
	defer un.Close()

	alice := un.enrolledClient("alice")
	defer alice.Close()

	preConnects := un.uplink.connects.Value()
	const total = 60
	ok := fetchRange(alice, un.prefix, 0, total, 2*time.Second)
	connects := un.uplink.connects.Value()
	t.Logf("udp reset delivery %d/%d; uplink connects %d -> %d", ok, total, preConnects, connects)
	if connects <= 1 {
		t.Errorf("uplink connects = %d, want > 1: a reset conn was never redialed", connects)
	}
	if ok < 54 {
		t.Errorf("delivery under udp resets = %d/%d, want >= 54", ok, total)
	}
}
