// Registry exposition for the UDP datagram plane: the socket's plain
// atomic counters (rx drops, oversize, fragment and reassembly totals,
// GSO fallbacks) become tactic_udp_* families here.
// Endpoint-wide series carry scope="endpoint" so they stay disjoint
// from the per-face series a Metrics factory attaches — summing a
// family never double-counts.
package transport

import (
	"sync/atomic"

	"github.com/tactic-icn/tactic/internal/obs"
)

// Metric family names for the UDP datagram plane.
const (
	// MetricUDPRxDrops counts datagrams dropped on full per-face receive
	// queues or new remotes shed on a full accept backlog.
	MetricUDPRxDrops = "tactic_udp_rx_drops_total"
	// MetricUDPRxOversize counts datagrams truncated by the socket
	// because they exceeded the receive buffer (MTU mismatch).
	MetricUDPRxOversize = "tactic_udp_rx_oversize_total"
	// MetricUDPFragments counts fragment datagrams, labelled dir="in"/"out".
	MetricUDPFragments = "tactic_udp_fragments_total"
	// MetricUDPReassembled counts frames completed from fragments.
	MetricUDPReassembled = "tactic_udp_reassembled_total"
	// MetricUDPReassemblyEvictions counts partial packets evicted before
	// completing — the health engine's fragment-flood signal.
	MetricUDPReassemblyEvictions = obs.FamilyReassemblyEvictions
	// MetricUDPGSOFallbacks counts runtime GSO disable transitions (the
	// kernel rejected a segmented send).
	MetricUDPGSOFallbacks = "tactic_udp_gso_fallbacks_total"
	// MetricUDPFaces gauges live demuxed faces on the endpoint.
	MetricUDPFaces = "tactic_udp_faces"
	// MetricUDPBatchEnabled / MetricUDPGSOEnabled / MetricUDPGROEnabled
	// gauge (0/1) the batched-syscall and offload state probed at socket
	// setup; GSO reads 0 again after a runtime fallback.
	MetricUDPBatchEnabled = "tactic_udp_batch_enabled"
	MetricUDPGSOEnabled   = "tactic_udp_gso_enabled"
	MetricUDPGROEnabled   = "tactic_udp_gro_enabled"
)

// boolGauge renders a bool as 0/1.
func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Series is one registry series: a family, the labels the series adds,
// and a scrape-time read of a number the transport counts.
type Series struct {
	Name   string
	Labels []obs.Label
	Read   func() float64
}

// series registers the help text of the ledger's tactic_udp_* families
// with reg and lists one series per counter — the one list behind an
// endpoint's scope="endpoint" series (Instrument) and a dialed face's
// per-face ones (DatagramFace.Series).
func (dg *dgramCounters) series(reg *obs.Registry) []Series {
	reg.Help(MetricUDPRxOversize, "UDP datagrams truncated and dropped for exceeding the receive buffer (MTU mismatch).")
	reg.Help(MetricUDPFragments, "Fragment datagrams moved, by direction.")
	reg.Help(MetricUDPReassembled, "Frames completed from fragment reassembly.")
	reg.Help(MetricUDPReassemblyEvictions, "Partial packets evicted before reassembly completed (timeout or slot pressure).")
	load := func(c *atomic.Uint64) func() float64 { return func() float64 { return float64(c.Load()) } }
	return []Series{
		{MetricUDPFragments, []obs.Label{obs.L("dir", "in")}, load(&dg.fragsIn)},
		{MetricUDPFragments, []obs.Label{obs.L("dir", "out")}, load(&dg.fragsOut)},
		{MetricUDPReassembled, nil, load(&dg.reassembled)},
		{MetricUDPReassemblyEvictions, nil, load(&dg.reasmEvicted)},
		{MetricUDPRxOversize, nil, load(&dg.oversize)},
	}
}

// Series lists the datagram-plane series of the face's endpoint ledger
// (see dgramCounters), registering their families' help text with reg.
func (f *DatagramFace) Series(reg *obs.Registry) []Series { return f.ep.dg.series(reg) }

// Instrument registers the endpoint's datagram-plane counters with reg
// under the tactic_udp_* families, labelled with labels plus
// scope="endpoint" (per-face series from a metrics factory use face
// labels instead, keeping family sums double-count-free). Call once per
// endpoint; reg may be nil.
func (ep *UDPEndpoint) Instrument(reg *obs.Registry, labels ...obs.Label) {
	if reg == nil {
		return
	}
	reg.Help(MetricUDPRxDrops, "UDP datagrams dropped on full receive queues or accept backlog.")
	reg.Help(MetricUDPGSOFallbacks, "Runtime UDP GSO disable transitions after a kernel rejection.")
	reg.Help(MetricUDPFaces, "Live demultiplexed faces on the UDP endpoint.")
	reg.Help(MetricUDPBatchEnabled, "Whether batched UDP syscalls (recvmmsg/sendmmsg) are active (0/1).")
	reg.Help(MetricUDPGSOEnabled, "Whether UDP generic segmentation offload is active (0/1; drops to 0 after a runtime fallback).")
	reg.Help(MetricUDPGROEnabled, "Whether UDP generic receive offload is active (0/1).")

	scoped := append(append([]obs.Label(nil), labels...), obs.L("scope", "endpoint"))
	cf := func(name string, fn func() float64, extra ...obs.Label) {
		reg.CounterFunc(name, fn, append(append([]obs.Label(nil), scoped...), extra...)...)
	}
	for _, s := range ep.dg.series(reg) {
		cf(s.Name, s.Read, s.Labels...)
	}
	cf(MetricUDPRxDrops, func() float64 { return float64(ep.RxDrops()) })
	cf(MetricUDPGSOFallbacks, func() float64 {
		_, _, fb := ep.bio.stats()
		return float64(fb)
	})
	reg.GaugeFunc(MetricUDPFaces, func() float64 { return float64(ep.Faces()) }, scoped...)
	reg.GaugeFunc(MetricUDPBatchEnabled, func() float64 { return boolGauge(ep.bio != nil) }, scoped...)
	reg.GaugeFunc(MetricUDPGSOEnabled, func() float64 {
		gsoProbed, _, fb := ep.bio.stats()
		return boolGauge(gsoProbed && fb == 0)
	}, scoped...)
	reg.GaugeFunc(MetricUDPGROEnabled, func() float64 {
		_, gro, _ := ep.bio.stats()
		return boolGauge(gro)
	}, scoped...)
}
