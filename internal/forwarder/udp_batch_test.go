package forwarder

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/obs"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/transport"
)

// burstSize is how many Interests reach a face in one burst: under the
// 32-datagram batch a face reader writes at once.
const burstSize = 24

// burstOrigin is an origin serving burstSize public chunks on a UDP
// listener it has not started serving yet.
type burstOrigin struct {
	prod     *Producer
	registry *pki.Registry
	ep       *transport.UDPEndpoint
	names    []names.Name
}

func newBurstOrigin(t *testing.T) *burstOrigin {
	t.Helper()
	key, err := pki.GenerateECDSA(rand.Reader, names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	o := &burstOrigin{registry: pki.NewRegistry()}
	if err := o.registry.Register(key.Locator(), key.Public()); err != nil {
		t.Fatal(err)
	}
	prefix := names.MustParse("/prov0")
	provider, err := core.NewProvider(prefix, key, time.Minute, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if o.prod, err = NewProducer(provider, o.registry, t.Logf); err != nil {
		t.Fatal(err)
	}
	if _, err := o.prod.PublishObject("open", core.Public, bytes.Repeat([]byte("0123456789abcdef"), burstSize), 16); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < burstSize; k++ {
		o.names = append(o.names, prefix.MustAppend("open", fmt.Sprintf("chunk%d", k)))
	}
	if o.ep, err = transport.ListenUDP("127.0.0.1:0", transport.UDPOptions{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { o.ep.Close(); o.prod.Close() })
	return o
}

// sendBurst sends an Interest for every name from a plain socket to the
// listener at to, and returns once the listener has had time to queue
// them all on the one face it makes for that socket — before anything
// serves it, so its reader finds the whole burst waiting.
func sendBurst(t *testing.T, to *transport.UDPEndpoint, ns []names.Name) *net.UDPConn {
	t.Helper()
	c, err := net.DialUDP("udp", nil, to.Addr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	for k, name := range ns {
		frame, err := ndn.EncodeInterest(&ndn.Interest{Name: name, Kind: ndn.KindContent, Nonce: uint64(k + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for to.Faces() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // loopback: the rest are queued by now
	return c
}

// readAnswers reads one Data per name from c, in any order.
func readAnswers(t *testing.T, c *net.UDPConn, ns []names.Name) {
	t.Helper()
	want := map[string]bool{}
	for _, n := range ns {
		want[n.String()] = true
	}
	buf := make([]byte, 64<<10)
	c.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	for len(want) > 0 {
		n, err := c.Read(buf)
		if err != nil {
			t.Fatalf("%d answers missing: %v", len(want), err)
		}
		d, err := ndn.DecodeData(buf[:n])
		if err != nil {
			t.Fatal(err)
		}
		if d.Nack || !want[d.Name.String()] {
			t.Fatalf("unexpected answer %s (NACK %v)", d.Name, d.Nack)
		}
		delete(want, d.Name.String())
	}
}

// socketWrites reads an endpoint's socket-write count as /metrics shows it.
func socketWrites(t *testing.T, ep *transport.UDPEndpoint) float64 {
	t.Helper()
	reg := obs.NewRegistry()
	ep.Instrument(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return metricValue(t, buf.String(), obs.MetricUDPSocketWrites)
}

// faceSocketWrites reads a dialed face's socket-write count from the
// series its forwarder exports for it.
func faceSocketWrites(t *testing.T, f *transport.DatagramFace) float64 {
	t.Helper()
	for _, s := range f.Series() {
		if s.Name == obs.MetricUDPSocketWrites {
			return s.Read()
		}
	}
	t.Fatalf("no %s series", obs.MetricUDPSocketWrites)
	return 0
}

// TestUDPReaderWritesItsBurstOnce: Interests that reach a UDP face in one
// burst leave the hop in one socket write per destination socket — the
// face reader holds what it sends until its queue runs dry and writes it
// as one batch — and every one is answered.
func TestUDPReaderWritesItsBurstOnce(t *testing.T) {
	t.Run("replies on the arrival socket", func(t *testing.T) {
		o := newBurstOrigin(t)
		c := sendBurst(t, o.ep, o.names)
		go o.prod.ServeFaces(o.ep) //nolint:errcheck // exits on close
		readAnswers(t, c, o.names)
		if w := socketWrites(t, o.ep); w != 1 {
			t.Errorf("%d replies took %v socket writes, want 1", burstSize, w)
		}
	})

	t.Run("forwarded onto a dialed uplink", func(t *testing.T) {
		o := newBurstOrigin(t)
		go o.prod.ServeFaces(o.ep) //nolint:errcheck // exits on close
		edge, err := New(Config{ID: "edge-0", Role: RoleEdge, Registry: o.registry, Seed: 1, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { edge.Close() })
		up, err := transport.DialUDP(o.ep.Addr().String(), transport.UDPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		edge.AddRoute(names.MustParse("/prov0"), edge.AddFace(up, false))
		ln, err := transport.ListenUDP("127.0.0.1:0", transport.UDPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		c := sendBurst(t, ln, o.names)
		if w := faceSocketWrites(t, up); w != 0 {
			t.Fatalf("the uplink wrote %v times before the burst was served", w)
		}
		go edge.ServeFaces(ln) //nolint:errcheck // exits on close
		readAnswers(t, c, o.names)
		if w := faceSocketWrites(t, up); w != 1 {
			t.Errorf("%d forwarded Interests took %v socket writes, want 1", burstSize, w)
		}
	})
}
