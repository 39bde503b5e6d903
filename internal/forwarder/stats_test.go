package forwarder

import (
	"crypto/rand"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/obs"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/transport"
)

// TestStatsAreTheMetrics drives a mixed run through an edge — origin
// fetches, content-store hits, a forged-tag NACK, an unsolicited Data —
// and requires Stats() to equal the sums of the /metrics series: each
// packet is counted once, in the registry the operator gave or, without
// one, in the forwarder's private registry. The same holds one layer
// down: each face's Status() stats equal its tactic_face_* series, for a
// TCP and a UDP downstream face, the UDP face's first datagram — which
// the endpoint demuxed before the forwarder had the face — included.
func TestStatsAreTheMetrics(t *testing.T) {
	for _, tc := range []struct {
		name string
		reg  *obs.Registry
	}{{"private registry", nil}, {"configured registry", obs.NewRegistry()}} {
		t.Run(tc.name, func(t *testing.T) {
			n := startLiveNetworkObs(t, time.Minute, tc.reg, nil, nil)
			defer n.Close()
			edge := n.edgeFwd
			if tc.reg != nil && edge.m.reg != tc.reg {
				t.Fatal("forwarder ignored the configured registry")
			}

			alice := n.newLiveClient(t, "alice", 3)
			defer alice.Close()
			for i := 0; i < 2; i++ { // the second fetch is all content-store hits
				if _, _, err := alice.FetchObject(n.prefix.MustAppend("report"), liveTimeout); err != nil {
					t.Fatal(err)
				}
			}

			rogue, err := pki.GenerateECDSA(rand.Reader, names.MustParse("/prov0/KEY/1"))
			if err != nil {
				t.Fatal(err)
			}
			forged, err := core.IssueTag(rogue, names.MustParse("/users/mallory/KEY/1"), 3,
				core.EmptyAccessPath.Accumulate("edge-0"), time.Now().Add(time.Hour))
			if err != nil {
				t.Fatal(err)
			}
			raw, err := net.Dial("tcp", n.edgeAddr)
			if err != nil {
				t.Fatal(err)
			}
			conn := transport.New(raw)
			defer conn.Close()
			if err := conn.SendInterest(&ndn.Interest{
				Name: n.prefix.MustAppend("report", "chunk0"), Kind: ndn.KindContent, Nonce: 2, Tag: forged,
			}); err != nil {
				t.Fatal(err)
			}
			if pkt, err := conn.Receive(); err != nil || pkt.Data == nil || !pkt.Data.Nack {
				t.Fatalf("forged tag not NACKed: %+v, %v", pkt, err)
			}
			if err := conn.SendData(&ndn.Data{Name: n.prefix.MustAppend("nobody", "asked")}); err != nil {
				t.Fatal(err)
			}
			uln, err := transport.ListenFace("udp://127.0.0.1:0", transport.UDPOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer uln.Close()
			go edge.ServeFaces(uln) //nolint:errcheck // exits on close
			udp, err := transport.DialFace("udp://"+uln.Addr().String(), transport.UDPOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer udp.Close()
			for nonce := uint64(3); nonce < 6; nonce++ {
				if err := udp.SendInterest(&ndn.Interest{
					Name: n.prefix.MustAppend("report", "chunk0"), Kind: ndn.KindContent, Nonce: nonce, Tag: forged,
				}); err != nil {
					t.Fatal(err)
				}
				if pkt, err := udp.Receive(); err != nil || pkt.Data == nil || !pkt.Data.Nack {
					t.Fatalf("forged tag over UDP not NACKed: %+v, %v", pkt, err)
				}
			}
			for deadline := time.Now().Add(5 * time.Second); edge.Stats().Drops == 0; time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("unsolicited Data never counted as a drop")
				}
			}

			st := edge.Stats()
			if st.Interests == 0 || st.Data == 0 || st.CSHits == 0 || st.NACKs == 0 || st.Drops == 0 {
				t.Fatalf("run was not mixed: %+v", st)
			}
			sums := map[string]uint64{}
			for series, v := range edge.m.reg.Snapshot() {
				family, _, _ := strings.Cut(series, "{")
				sums[family] += uint64(v)
			}
			for family, want := range map[string]uint64{
				obs.MetricInterests: st.Interests, obs.MetricData: st.Data, obs.MetricCSHits: st.CSHits,
				obs.MetricNACKs: st.NACKs, obs.MetricDrops: st.Drops,
				obs.MetricVerifySheds: st.VerifySheds, obs.MetricVerifyFlushed: st.VerifyFlushed,
			} {
				if sums[family] != want {
					t.Errorf("%s sums to %d on /metrics, Stats() says %d", family, sums[family], want)
				}
			}

			// A frame is counted when its write returns, which can be after
			// the peer has read it: compare once the ledger has stopped moving.
			var diff string
			var tcpFaces, udpFaces int
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
				diff, tcpFaces, udpFaces = "", 0, 0
				status, snap := edge.Status(), edge.m.reg.Snapshot()
				for _, f := range status.Faces {
					if !f.Downstream {
						continue
					}
					labels := func(dir string) string {
						return fmt.Sprintf(`{%sface="%d",link="downstream",role="edge"}`, dir, f.ID)
					}
					for series, want := range map[string]uint64{
						obs.MetricFaceFrames + labels(`dir="in",`):  f.Stats.FramesIn,
						obs.MetricFaceFrames + labels(`dir="out",`): f.Stats.FramesOut,
						obs.MetricFaceBytes + labels(`dir="in",`):   f.Stats.BytesIn,
						obs.MetricFaceBytes + labels(`dir="out",`):  f.Stats.BytesOut,
						obs.MetricFaceErrors + labels(""):           f.Stats.Errors,
					} {
						if got, ok := snap[series]; !ok || got != float64(want) {
							diff += fmt.Sprintf("%s = %v (present %v), Status() says %d\n", series, got, ok, want)
						}
					}
					edge.mu.RLock()
					_, datagram := edge.faces[ndn.FaceID(f.ID)].conn.(*transport.DatagramFace)
					edge.mu.RUnlock()
					if !datagram {
						tcpFaces++
					} else if udpFaces++; f.Stats.FramesIn != udp.Stats().FramesOut {
						diff += fmt.Sprintf("UDP face %d counted %d frames in, its peer sent %d\n", f.ID, f.Stats.FramesIn, udp.Stats().FramesOut)
					}
				}
				if diff == "" || time.Now().After(deadline) {
					break
				}
			}
			if diff != "" {
				t.Error(diff)
			}
			if tcpFaces == 0 || udpFaces != 1 {
				t.Errorf("compared %d TCP and %d UDP downstream faces, want both kinds", tcpFaces, udpFaces)
			}

			// A face's series outlive it, holding their last values.
			var series string
			var last transport.Stats
			for _, f := range edge.Status().Faces {
				if f.Remote == raw.LocalAddr().String() {
					series = fmt.Sprintf(`%s{dir="in",face="%d",link="downstream",role="edge"}`, obs.MetricFaceFrames, f.ID)
					last = f.Stats
				}
			}
			conn.Close()
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
				gone := true
				for _, f := range edge.Status().Faces {
					gone = gone && f.Remote != raw.LocalAddr().String()
				}
				if gone {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("closed face never detached")
				}
			}
			if got, ok := edge.m.reg.Snapshot()[series]; !ok || got != float64(last.FramesIn) || last.FramesIn == 0 {
				t.Errorf("after its face closed, %s = %v (present %v), want %d", series, got, ok, last.FramesIn)
			}
		})
	}
}
