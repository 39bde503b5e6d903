package forwarder

import (
	"crypto/rand"
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
// one, in the forwarder's private registry.
func TestStatsAreTheMetrics(t *testing.T) {
	for _, tc := range []struct {
		name string
		reg  *obs.Registry
	}{{"private registry", nil}, {"configured registry", obs.NewRegistry()}} {
		t.Run(tc.name, func(t *testing.T) {
			n := startLiveNetworkObs(t, time.Minute, tc.reg, nil)
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
				MetricInterests: st.Interests, MetricData: st.Data, MetricCSHits: st.CSHits,
				MetricNACKs: st.NACKs, MetricDrops: st.Drops,
				MetricVerifySheds: st.VerifySheds, MetricVerifyFlushed: st.VerifyFlushed,
			} {
				if sums[family] != want {
					t.Errorf("%s sums to %d on /metrics, Stats() says %d", family, sums[family], want)
				}
			}
		})
	}
}
