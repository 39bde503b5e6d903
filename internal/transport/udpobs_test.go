package transport

import (
	"bytes"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/obs"
)

// TestUDPDemuxedFaceCountsBeforeAccept is the regression test for the
// demux gap: a face the endpoint's read loop creates takes datagrams
// before Accept hands it to anyone who could attach a series. The face
// counts in its own ledger from its first datagram, so a series
// registered after Accept — a scrape-time view of Stats — reports all of
// it, and the socket's datagram-plane ledger has the fragments.
func TestUDPDemuxedFaceCountsBeforeAccept(t *testing.T) {
	ep, cl := udpPair(t, UDPOptions{})
	// Everything is sent, and demuxed, before Accept: a whole frame, a
	// keepalive, and a Data big enough to fragment.
	if err := cl.SendInterest(&ndn.Interest{Name: names.MustParse("/p/x"), Kind: ndn.KindContent, Nonce: 1}); err != nil {
		t.Fatal(err)
	}
	if err := cl.SendKeepalive(); err != nil {
		t.Fatal(err)
	}
	if err := cl.SendData(testData(bytes.Repeat([]byte{0x5A}, 3500))); err != nil {
		t.Fatal(err)
	}
	srv := acceptOne(t, ep)
	reg := obs.NewRegistry()
	reg.CounterFunc("frames_in_total", func() float64 { return float64(srv.Stats().FramesIn) })
	if pkt, err := srv.Receive(); err != nil || pkt.Interest == nil {
		t.Fatalf("receive: %+v err=%v", pkt, err)
	}
	if pkt, err := srv.Receive(); err != nil || pkt.Data == nil {
		t.Fatalf("receive: %+v err=%v", pkt, err)
	}
	sent, got := cl.Stats(), srv.Stats()
	if got.FramesIn != 3 || got.FramesIn != sent.FramesOut || got.KeepalivesIn != 1 {
		t.Fatalf("demuxed face stats %+v, dialer sent %+v: want 3 frames in, 1 keepalive", got, sent)
	}
	if v := reg.Snapshot()["frames_in_total"]; v != 3 {
		t.Fatalf("series registered after Accept reads %v, want 3", v)
	}
	in, _ := ep.Fragments()
	if _, out := cl.Fragments(); in < 2 || out != in || ep.dg.reassembled.Load() != 1 {
		t.Fatalf("datagram plane: endpoint in=%d reassembled=%d, dialer out=%d", in, ep.dg.reassembled.Load(), out)
	}
}

// TestUDPReassemblyEvictionMetricsAndEvent drives a timeout eviction
// and asserts it surfaces in the endpoint's ledger, its registry
// series, and a reassembly_evict event.
func TestUDPReassemblyEvictionMetricsAndEvent(t *testing.T) {
	reg := obs.NewRegistry()
	ev := obs.NewEvents("n0", 32)
	ep, cl := udpPair(t, UDPOptions{})
	ep.Instrument(reg)
	frag := func(id uint64, idx, cnt uint16, payload []byte) []byte {
		body := mkFragBody(id, idx, cnt, payload)
		dg := append([]byte{typeFrag}, appendTLVLen(nil, len(body))...)
		return append(dg, body...)
	}
	whole := func(nonce uint64) []byte {
		buf, err := ndn.AppendInterest(nil, &ndn.Interest{Name: names.MustParse("/p/x"), Kind: ndn.KindContent, Nonce: nonce})
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	// First half of packet 1, chased by a marker so the reassembler
	// stamps it now; past the timeout, a new fragment (of packet 2)
	// triggers the expiry sweep.
	cl.SendFrame(frag(1, 0, 2, []byte("half"))) //nolint:errcheck
	cl.SendFrame(whole(8))                      //nolint:errcheck
	srv := acceptOne(t, ep)
	srv.(*DatagramFace).asm.timeout = 60 * time.Millisecond // before the face's first fragment
	srv.SetMetrics(&Metrics{Events: ev, Face: 1})
	srv.SetIdleTimeout(2 * time.Second)
	if pkt, err := srv.Receive(); err != nil || pkt.Interest == nil || pkt.Interest.Nonce != 8 {
		t.Fatalf("marker: %+v err=%v", pkt, err)
	}
	time.Sleep(120 * time.Millisecond)
	cl.SendFrame(frag(2, 0, 2, []byte("next"))) //nolint:errcheck
	cl.SendFrame(whole(9))                      //nolint:errcheck
	if pkt, err := srv.Receive(); err != nil || pkt.Interest == nil || pkt.Interest.Nonce != 9 {
		t.Fatalf("post-evict marker: %+v err=%v", pkt, err)
	}
	if n := srv.(*DatagramFace).ep.dg.reasmEvicted.Load(); n != 1 {
		t.Fatalf("evictions = %d, want 1", n)
	}
	if got := reg.Snapshot()[obs.MetricUDPReassemblyEvictions+`{scope="endpoint"}`]; got != 1 {
		t.Fatalf("registry eviction counter = %v, want 1", got)
	}
	var found *obs.Event
	for _, e := range ev.Snapshot() {
		if e.Type == obs.EventReassemblyEvict {
			e := e
			found = &e
		}
	}
	if found == nil || found.Face != 1 || found.Value != 1 {
		t.Fatalf("reassembly_evict event = %+v", found)
	}
}

// TestUDPEndpointInstrument registers the endpoint families and checks
// the scope label plus live values after traffic.
func TestUDPEndpointInstrument(t *testing.T) {
	reg := obs.NewRegistry()
	ep, cl := udpPair(t, UDPOptions{})
	ep.Instrument(reg, obs.L("role", "edge"))
	payload := bytes.Repeat([]byte{0x11}, 3000)
	if err := cl.SendData(testData(payload)); err != nil {
		t.Fatal(err)
	}
	srv := acceptOne(t, ep)
	if pkt, err := srv.Receive(); err != nil || pkt.Data == nil {
		t.Fatalf("receive: %+v err=%v", pkt, err)
	}
	snap := reg.Snapshot()
	in, _ := ep.Fragments()
	fragKey := obs.MetricUDPFragments + `{dir="in",role="edge",scope="endpoint"}`
	if got := snap[fragKey]; got != float64(in) || in < 2 {
		t.Fatalf("%s = %v, want %d (snap %v)", fragKey, got, in, snap)
	}
	facesKey := obs.MetricUDPFaces + `{role="edge",scope="endpoint"}`
	if got := snap[facesKey]; got != 1 {
		t.Fatalf("%s = %v, want 1", facesKey, got)
	}
	batch := ep.bio != nil
	gso, _, fb := ep.bio.stats()
	batchKey := obs.MetricUDPBatchEnabled + `{role="edge",scope="endpoint"}`
	if got := snap[batchKey]; got != boolGauge(batch) {
		t.Fatalf("%s = %v, want %v", batchKey, got, boolGauge(batch))
	}
	gsoKey := obs.MetricUDPGSOEnabled + `{role="edge",scope="endpoint"}`
	if got := snap[gsoKey]; got != boolGauge(gso && fb == 0) {
		t.Fatalf("%s = %v", gsoKey, got)
	}
}
