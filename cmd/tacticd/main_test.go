package main

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
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

// fixture is an origin's key material and one object to publish: a
// provider key, alice's enrolled public key and a 3.5 KB payload (four
// 1 KB chunks).
type fixture struct {
	dir      string
	provPub  string // -trust for the routers
	alice    *pki.ECDSAKeyPair
	payload  []byte
	producer []string // the origin's flags, but for -listen and -admin
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	fx := &fixture{dir: t.TempDir(), payload: bytes.Repeat([]byte("tactic!"), 500)}
	write := func(name string, data []byte) string {
		t.Helper()
		path := filepath.Join(fx.dir, name)
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		return path
	}
	provKey, err := pki.GenerateECDSA(rand.Reader, names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	provPEM, err := pki.MarshalECDSAPrivate(provKey)
	if err != nil {
		t.Fatal(err)
	}
	provPubPEM, err := pki.MarshalPublic(provKey.Locator(), provKey.Public())
	if err != nil {
		t.Fatal(err)
	}
	if fx.alice, err = pki.GenerateECDSA(rand.Reader, names.MustParse("/users/alice/KEY/1")); err != nil {
		t.Fatal(err)
	}
	alicePEM, err := pki.MarshalPublic(fx.alice.Locator(), fx.alice.Public())
	if err != nil {
		t.Fatal(err)
	}
	fx.provPub = write("prov0.pub", provPubPEM)
	fx.producer = []string{"-role", "producer", "-id", "prov0", "-prefix", "/prov0", "-key", write("prov0.key", provPEM),
		"-publish", "report=" + write("report.bin", fx.payload), "-level", "2",
		"-enroll", write("alice.pub", alicePEM) + "=3"}
	return fx
}

// daemon is one run of the command, serving.
type daemon struct {
	ln   transport.FaceListener
	done chan error
}

// start runs the command with args and returns once it listens.
func start(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{done: make(chan error, 1)}
	up := make(chan transport.FaceListener, 1)
	go func() {
		d.done <- run(append([]string{"-listen", "127.0.0.1:0"}, args...), func(ln transport.FaceListener) { up <- ln })
	}()
	select {
	case d.ln = <-up:
	case err := <-d.done:
		t.Fatalf("run %v returned before listening: %v", args, err)
	}
	return d
}

// stop closes the daemon's listener and requires a clean drain.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	d.ln.Close()
	select {
	case err := <-d.done:
		if err != nil {
			t.Errorf("run stopped with %v, want a clean drain", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("run still serving 2 s after its listener closed")
	}
}

// fetch dials addr as alice behind edge-0, fetches the report, and
// returns the client still connected; the caller closes it.
func (fx *fixture) fetch(t *testing.T, addr string) *forwarder.Client {
	t.Helper()
	identity, err := core.NewClient(fx.alice, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	client, err := forwarder.Dial(addr, identity, "alice", "edge-0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	got, chunks, err := client.FetchObject(names.MustParse("/prov0/report"), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if chunks != 4 || !bytes.Equal(got, fx.payload) {
		t.Errorf("fetched %d bytes in %d chunks, want the %d published in 4", len(got), chunks, len(fx.payload))
	}
	return client
}

// waitGoroutines requires the goroutine count to fall back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestServeFetchStop runs the origin end to end: publish a file, enroll
// a client, fetch the object back over a real face, then stop the daemon
// by closing its listener — with the client still connected — and
// require every goroutine it started to be gone.
func TestServeFetchStop(t *testing.T) {
	fx := newFixture(t)
	base := runtime.NumGoroutine()
	origin := start(t, fx.producer...)
	client := fx.fetch(t, origin.ln.Addr().String())
	origin.stop(t)
	client.Close()
	waitGoroutines(t, base)
}

// TestRunErrors: a flag combination that configures nothing is refused,
// naming the flag, before anything starts.
func TestRunErrors(t *testing.T) {
	fx := newFixture(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "-id"},
		{[]string{"-id", "x", "-role", "origin"}, "unknown role"},
		{[]string{"-id", "p", "-role", "producer"}, "-prefix and -key"},
		{[]string{"-id", "p", "-role", "producer", "-prefix", "/p"}, "-prefix and -key"},
		{[]string{"-id", "p", "-role", "producer", "-prefix", "/p", "-key", "/nonexistent/prov.key"}, "no such file"},
		{append([]string{"-route", "/prov0=127.0.0.1:1"}, fx.producer...), "-route"},
		{append([]string{"-sync-peer", "127.0.0.1:1"}, fx.producer...), "-sync-peer"},
		{append([]string{"-bf-sync-interval", "1s"}, fx.producer...), "-bf-sync-interval"},
		{append([]string{"-trust", fx.provPub}, fx.producer...), "-trust"},
		{[]string{"-id", "edge-0", "-role", "edge", "-prefix", "/prov0"}, "-prefix"},
		{[]string{"-id", "core-0", "-enroll", "alice.pub=3"}, "-enroll"},
		{[]string{"-id", "edge-0", "-role", "edge", "-sync-peer", "127.0.0.1:1"}, "-bf-sync-interval"},
		// The forwarder would read either as "use the default" and run a
		// 4096-chunk store.
		{[]string{"-id", "core-0", "-cs", "0"}, "-cs 0: the live content store cannot be disabled"},
		{[]string{"-id", "edge-0", "-role", "edge", "-cs", "-3"}, "-cs -3: the live content store cannot be disabled"},
	} {
		if err := run(tc.args, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want an error naming %q", tc.args, err, tc.want)
		}
	}
}

// TestThreeRoles boots a producer, a core and an edge as three runs of
// the one command on loopback, fetches through them, and reads the
// origin's own telemetry: it exports the routers' families under
// role="producer" and logs its face events, so the shed and
// BF-saturation health rules see it like any router.
func TestThreeRoles(t *testing.T) {
	fx := newFixture(t)
	admin := freeAddr(t)
	base := runtime.NumGoroutine()

	origin := start(t, append(fx.producer, "-admin", admin)...)
	router := start(t, "-role", "core", "-id", "core-0", "-trust", fx.provPub, "-route", "/prov0="+origin.ln.Addr().String())
	edge := start(t, "-role", "edge", "-id", "edge-0", "-trust", fx.provPub, "-route", "/prov0="+router.ln.Addr().String())
	client := fx.fetch(t, edge.ln.Addr().String())

	web := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}
	metrics := get(t, web, "http://"+admin+"/metrics")
	if got := sample(metrics, `tactic_cs_hits_total{role="producer"}`); got < 4 {
		t.Errorf(`origin tactic_cs_hits_total{role="producer"} = %v, want >= 4 chunks`, got)
	}
	for _, family := range []string{obs.MetricVerifySheds, obs.MetricBFMeasuredFPP, obs.MetricFaces, obs.MetricRegistrations} {
		if !hasRole(metrics, family, "producer") {
			t.Errorf("origin /metrics has no %s series with role=\"producer\"", family)
		}
	}
	var eventz struct {
		Events []obs.Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(get(t, web, "http://"+admin+"/eventz")), &eventz); err != nil {
		t.Fatal(err)
	}
	faceUp := false
	for _, e := range eventz.Events {
		faceUp = faceUp || e.Type == obs.EventFaceUp
	}
	if !faceUp {
		t.Errorf("origin /eventz holds no %s event: %+v", obs.EventFaceUp, eventz.Events)
	}
	var statusz struct {
		Status forwarder.Status `json:"status"`
	}
	if err := json.Unmarshal([]byte(get(t, web, "http://"+admin+"/statusz")), &statusz); err != nil {
		t.Fatal(err)
	}
	if statusz.Status.Role != "producer" || statusz.Status.ID != "prov0" || statusz.Status.CSEntries != 5 {
		t.Errorf("origin /statusz = %s/%s with %d entries, want prov0/producer with 5 chunks",
			statusz.Status.ID, statusz.Status.Role, statusz.Status.CSEntries)
	}

	// Upstream first, each with its downstream peer still attached: a
	// daemon drains and returns while a face is open.
	origin.stop(t)
	router.stop(t)
	edge.stop(t)
	client.Close()
	waitGoroutines(t, base)
}

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

func get(t *testing.T, c *http.Client, url string) string {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s %v", url, resp.Status, err)
	}
	return string(body)
}

// sample returns the value of the exposition line that starts with
// series, or -1 when there is none.
func sample(exposition, series string) float64 {
	sc := bufio.NewScanner(strings.NewReader(exposition))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), series); ok {
			fields := strings.Fields(rest)
			if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
				return v
			}
		}
	}
	return -1
}

// hasRole reports whether family has a series labelled role.
func hasRole(exposition, family, role string) bool {
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, family+"{") && strings.Contains(line, `role="`+role+`"`) {
			return true
		}
	}
	return false
}
