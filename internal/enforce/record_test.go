package enforce

import (
	"errors"
	"testing"

	"github.com/tactic-icn/tactic/internal/core"
)

// TestOnDataRecord pins the one per-record Data decision both planes
// call: role × primary/aggregated × tagless/valid/forged tag ×
// Public/private content × content / content+NACK / bare NACK, under
// both schemes. Every row runs on a fresh router.
func TestOnDataRecord(t *testing.T) {
	const (
		tagless = iota
		valid
		forged
	)
	const (
		content     = iota // content, no NACK
		contentNACK        // content alongside the upstream's NACK
		bareNACK           // the upstream's NACK alone
	)
	upstream := core.ErrTagExpired // the reason the upstream gave for the primary tag
	const arrivedF = 0.25

	rows := []struct {
		what          string
		edge, primary bool
		tag           int
		public        bool
		arrived       int

		deliver Delivery
		stage   Stage
		flag    float64
		reason  error
		minted  bool
	}{
		// Edge router: Protocol 2 On-Content. The client gets the content or nothing.
		{"edge primary tagless public", true, true, tagless, true, content, DeliverContent, StageNone, arrivedF, nil, false},
		{"edge primary tagless private", true, true, tagless, false, content, DeliverNothing, StageNone, 0, core.ErrNoTag, false},
		{"edge primary tagless public but NACKed", true, true, tagless, true, contentNACK, DeliverNothing, StageNone, 0, core.ErrNoTag, false},
		{"edge aggregated tagless public", true, false, tagless, true, content, DeliverContent, StageNone, arrivedF, nil, false},
		{"edge aggregated tagless bare NACK", true, false, tagless, false, bareNACK, DeliverNothing, StageNone, 0, core.ErrNoTag, false},
		{"edge primary valid", true, true, valid, false, content, DeliverContent, StageEdgeData, arrivedF, nil, false},
		{"edge primary NACKed upstream", true, true, valid, false, contentNACK, DeliverNothing, StageEdgeData, 0, upstream, false},
		{"edge primary bare NACK", true, true, valid, false, bareNACK, DeliverNothing, StageEdgeData, 0, upstream, false},
		{"edge aggregated valid beside the primary's NACK", true, false, valid, false, contentNACK, DeliverContent, StageAggregate, arrivedF, nil, false},
		{"edge aggregated forged", true, false, forged, false, content, DeliverNothing, StageAggregate, 0, core.ErrTagForged, false},
		{"edge aggregated valid bare NACK", true, false, valid, false, bareNACK, DeliverNothing, StageNone, 0, upstream, false},

		// Any other router: Protocol 4. The primary is relayed as it came;
		// an aggregated record always gets the content it can be given.
		{"core primary relayed", false, true, valid, false, content, DeliverContent, StageNone, arrivedF, nil, false},
		{"core primary tagless relayed unjudged", false, true, tagless, false, content, DeliverContent, StageNone, arrivedF, nil, false},
		{"core primary NACK relayed with content", false, true, forged, false, contentNACK, DeliverContentNACK, StageNone, arrivedF, upstream, false},
		{"core primary bare NACK relayed", false, true, valid, false, bareNACK, DeliverNACK, StageNone, arrivedF, upstream, false},
		{"core aggregated bare NACK relayed", false, false, valid, false, bareNACK, DeliverNACK, StageNone, 0, upstream, false},
		{"core aggregated tagless public", false, false, tagless, true, content, DeliverContent, StageNone, arrivedF, nil, false},
		{"core aggregated tagless private", false, false, tagless, false, content, DeliverContentNACK, StageNone, 0, core.ErrNoTag, true},
		{"core aggregated valid", false, false, valid, false, content, DeliverContent, StageAggregate, 0, nil, false},
		{"core aggregated valid beside the primary's NACK", false, false, valid, false, contentNACK, DeliverContent, StageAggregate, 0, nil, false},
		{"core aggregated forged", false, false, forged, false, content, DeliverContentNACK, StageAggregate, 0, core.ErrTagForged, true},
	}
	for _, scheme := range []core.Scheme{core.SchemeTACTIC, core.SchemeIBAC} {
		for i, row := range rows {
			t.Run(scheme.String()+"/"+row.what, func(t *testing.T) {
				r, prov := testRouter(t, int64(100+i), core.Config{Scheme: scheme})
				var tag *core.Tag
				switch row.tag {
				case valid:
					tag = issueTestTag(t, prov, 1, 0, testTime(100))
				case forged:
					tag = issueTestTag(t, newTestSigner(t, 999, "/prov0/KEY/1"), 1, 0, testTime(100))
				}
				meta := aggMeta(prov)
				if row.public {
					meta.Level = core.Public
				}
				d := ArrivedData{Content: &core.Content{Meta: meta}, Flag: arrivedF}
				if row.arrived != content {
					d.Nack, d.NackReason = true, upstream
				}
				if row.arrived == bareNACK {
					d.Content = nil
				}
				v := r.OnDataRecord(row.edge, row.primary, tag, 0, d, testTime(10))
				if v.Deliver != row.deliver || v.Stage != row.stage || v.Flag != row.flag || v.Minted != row.minted {
					t.Errorf("verdict = %+v, want deliver %d stage %v flag %g minted %v", v, row.deliver, row.stage, row.flag, row.minted)
				}
				if !errors.Is(v.Reason, row.reason) || (row.reason == nil && v.Reason != nil) {
					t.Errorf("reason = %v, want %v", v.Reason, row.reason)
				}
				if v.Deliver.Nack() != (row.deliver == DeliverContentNACK || row.deliver == DeliverNACK) {
					t.Errorf("Delivery(%d).Nack() = %v", v.Deliver, v.Deliver.Nack())
				}
			})
		}
	}
}
