// Registry exposition for the UDP datagram plane: the socket's plain
// atomic counters (rx drops, oversize, fragment and reassembly totals,
// socket writes, GSO fallbacks) become tactic_udp_* families here.
// Endpoint-wide series carry scope="endpoint" so they stay disjoint
// from the per-face series a Metrics factory attaches — summing a
// family never double-counts.
package transport

import (
	"sync/atomic"

	"github.com/tactic-icn/tactic/internal/obs"
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

// series lists one series per counter of the ledger's tactic_udp_*
// families: the one list behind an endpoint's scope="endpoint" series
// (Instrument) and a dialed face's per-face ones (DatagramFace.Series).
func (dg *dgramCounters) series() []Series {
	load := func(c *atomic.Uint64) func() float64 { return func() float64 { return float64(c.Load()) } }
	return []Series{
		{obs.MetricUDPFragments, []obs.Label{obs.L("dir", "in")}, load(&dg.fragsIn)},
		{obs.MetricUDPFragments, []obs.Label{obs.L("dir", "out")}, load(&dg.fragsOut)},
		{obs.MetricUDPReassembled, nil, load(&dg.reassembled)},
		{obs.MetricUDPReassemblyEvictions, nil, load(&dg.reasmEvicted)},
		{obs.MetricUDPRxOversize, nil, load(&dg.oversize)},
		{obs.MetricUDPSocketWrites, nil, load(&dg.writes)},
	}
}

// Series lists the datagram-plane series of the face's endpoint ledger
// (see dgramCounters).
func (f *DatagramFace) Series() []Series { return f.ep.dg.series() }

// Instrument registers the endpoint's datagram-plane counters with reg
// under the tactic_udp_* families, labelled with labels plus
// scope="endpoint" (per-face series from a metrics factory use face
// labels instead, keeping family sums double-count-free). Call once per
// endpoint; reg may be nil.
func (ep *UDPEndpoint) Instrument(reg *obs.Registry, labels ...obs.Label) {
	if reg == nil {
		return
	}
	scoped := append(append([]obs.Label(nil), labels...), obs.L("scope", "endpoint"))
	cf := func(name string, fn func() float64, extra ...obs.Label) {
		reg.CounterFunc(name, fn, append(append([]obs.Label(nil), scoped...), extra...)...)
	}
	for _, s := range ep.dg.series() {
		cf(s.Name, s.Read, s.Labels...)
	}
	cf(obs.MetricUDPRxDrops, func() float64 { return float64(ep.RxDrops()) })
	cf(obs.MetricUDPGSOFallbacks, func() float64 {
		_, _, fb := ep.bio.stats()
		return float64(fb)
	})
	reg.GaugeFunc(obs.MetricUDPFaces, func() float64 { return float64(ep.Faces()) }, scoped...)
	reg.GaugeFunc(obs.MetricUDPBatchEnabled, func() float64 { return boolGauge(ep.bio != nil) }, scoped...)
	reg.GaugeFunc(obs.MetricUDPGSOEnabled, func() float64 {
		gsoProbed, _, fb := ep.bio.stats()
		return boolGauge(gsoProbed && fb == 0)
	}, scoped...)
	reg.GaugeFunc(obs.MetricUDPGROEnabled, func() float64 {
		_, gro, _ := ep.bio.stats()
		return boolGauge(gro)
	}, scoped...)
}
