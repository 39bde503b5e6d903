package network_test

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/network"
)

// TestUnsolicitedDataChangesNothing runs the node core's table of cases
// (internal/node/testdata/unsolicited_data.json, shared with the core's
// own test and the live forwarder's) through the simulator's router: a
// Data with no pending entry, or arriving on a face the Interest was not
// forwarded to, is not cached, does not insert a registration response's
// tag into the edge's Bloom filter, and leaves the entry pending.
func TestUnsolicitedDataChangesNothing(t *testing.T) {
	raw, err := os.ReadFile("../node/testdata/unsolicited_data.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct {
		Name         string `json:"name"`
		Pending      bool   `json:"pending"`
		Registration bool   `json:"registration"`
		FromOutFace  bool   `json:"from_out_face"`
		Accepted     bool   `json:"accepted"`
	}
	if err := json.Unmarshal(raw, &cases); err != nil || len(cases) == 0 {
		t.Fatalf("%d cases, %v", len(cases), err)
	}
	for _, tc := range cases {
		t.Run(tc.Name, func(t *testing.T) {
			h := newHarness(t, network.RouterConfig{})
			clientSide, outFace := h.net.FaceToward(2, 1), h.net.FaceToward(2, 3)
			name, kind := h.content.Meta.Name, ndn.KindContent
			d := &ndn.Data{Name: name, Content: h.content}
			if tc.Registration {
				tag, err := core.IssueTag(mustSigner(t, h), names.MustParse("/users/mallory/KEY/1"), 3, h.apValue, time.Unix(3600, 0))
				if err != nil {
					t.Fatal(err)
				}
				name, kind = names.MustParse("/prov0/register/mallory"), ndn.KindRegistration
				d = &ndn.Data{Name: name, Registration: &core.RegistrationResponse{Tag: tag}}
			}
			if tc.Pending {
				h.edge.HandleInterest(&ndn.Interest{Name: name, Kind: kind, Nonce: 1}, clientSide)
			}
			changed := func() (inserted, cached bool) {
				return h.edge.Tactic().Bloom().Stats().Insertions == 1, len(h.edge.CSNames()) == 1
			}
			from := outFace
			if !tc.FromOutFace {
				from = clientSide
			}
			h.edge.HandleData(d, from)
			inserted, cached := changed()
			if tc.Accepted {
				if inserted != tc.Registration || cached == tc.Registration {
					t.Errorf("solicited: inserted %v, cached %v", inserted, cached)
				}
				return
			}
			if inserted || cached {
				t.Errorf("unsolicited: inserted %v, cached %v — want nothing changed", inserted, cached)
			}
			// The entry, if any, is still pending: the answer from the
			// out-face is accepted.
			h.edge.HandleData(d, outFace)
			if inserted, cached = changed(); (inserted || cached) != tc.Pending {
				t.Errorf("answer from the out-face afterwards: inserted %v, cached %v; entry was pending = %v", inserted, cached, tc.Pending)
			}
		})
	}
}
