package forwarder

import (
	"crypto/rand"
	"encoding/json"
	"net"
	"os"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/transport"
)

// A Data changes what a router holds only as the answer to a pending
// Interest, arriving on the face that Interest was forwarded to. These
// tests play the attacker: a client pushing Data at its own edge.

// TestUnsolicitedRegistrationDataDoesNotValidate: a client sends its edge
// one unrequested registration response carrying a forged tag. The tag
// must not read as validated — its next Interest is a Bloom-filter miss,
// goes upstream unvouched (F = 0) and comes back a forged NACK.
func TestUnsolicitedRegistrationDataDoesNotValidate(t *testing.T) {
	n := startLiveNetwork(t, time.Minute)
	defer n.Close()
	rogue, err := pki.GenerateECDSA(rand.Reader, n.provKey.Locator())
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
	mallory := transport.New(raw)
	defer mallory.Close()

	if err := mallory.SendData(&ndn.Data{Name: n.prefix.MustAppend("register", "mallory"),
		Registration: &core.RegistrationResponse{Tag: forged}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the pushed Data to be dropped", func() bool { return n.edgeFwd.Stats().Drops == 1 })
	if n.edgeFwd.Tactic().Bloom().Contains(forged.CacheKey()) {
		t.Error("forged tag reads as validated at the edge after one pushed registration Data")
	}

	name := n.prefix.MustAppend("report", "chunk0")
	if err := mallory.SendInterest(&ndn.Interest{Name: name, Kind: ndn.KindContent, Nonce: 1, Tag: forged}); err != nil {
		t.Fatal(err)
	}
	mallory.SetIdleTimeout(liveTimeout)
	pkt, err := mallory.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if d := pkt.Data; d == nil || !d.Nack || core.ReasonLabel(d.NackReason) != "forged" || d.Content != nil {
		t.Errorf("forged tag's Interest answered %+v, want a forged NACK without content", d)
	}
}

// playedEdge is a standalone edge whose only upstream is held by the
// test, with two contents published under one public name.
type playedEdge struct {
	edge            *Forwarder
	up              *transport.Conn
	name            names.Name
	genuine, poison *core.Content
}

func startPlayedEdge(t *testing.T) *playedEdge {
	t.Helper()
	provKey, err := pki.GenerateECDSA(rand.Reader, names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	reg := pki.NewRegistry()
	if err := reg.Register(provKey.Locator(), provKey.Public()); err != nil {
		t.Fatal(err)
	}
	prov, err := core.NewProvider(names.MustParse("/prov0"), provKey, time.Minute, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	pe := &playedEdge{name: names.MustParse("/prov0/open/chunk0")}
	if pe.genuine, err = prov.Publish(pe.name, core.Public, []byte("public info")); err != nil {
		t.Fatal(err)
	}
	if pe.poison, err = prov.Publish(pe.name, core.Public, []byte("poison")); err != nil {
		t.Fatal(err)
	}
	if pe.edge, err = New(Config{ID: "edge-0", Role: RoleEdge, Registry: reg, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	upCli, upFwd := net.Pipe()
	pe.up = transport.New(upCli)
	pe.edge.AddRoute(names.MustParse("/prov0"), pe.edge.AddFace(transport.New(upFwd), false))
	t.Cleanup(func() {
		pe.edge.Close()
		pe.up.Close()
	})
	return pe
}

func (pe *playedEdge) newClient(t *testing.T) *transport.Conn {
	cSide, fSide := net.Pipe()
	pe.edge.AddFace(transport.New(fSide), true)
	c := transport.New(cSide)
	t.Cleanup(func() { c.Close() })
	return c
}

// TestPushedContentIsNotCached: content Data nobody asked for does not
// enter the content store.
func TestPushedContentIsNotCached(t *testing.T) {
	pe := startPlayedEdge(t)
	mallory := pe.newClient(t)
	if err := mallory.SendData(&ndn.Data{Name: pe.name, Content: pe.poison}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the push to be dropped", func() bool { return pe.edge.Stats().Drops == 1 })
	if cached := pe.edge.CSNames(); len(cached) != 0 {
		t.Fatalf("content pushed from a client face was cached: %v", cached)
	}
}

// TestDataFromWrongFaceIsIgnored: while a request is pending upstream,
// another client pushes Data under its name. The push is dropped as
// unsolicited — not cached, the entry left pending — and the requester
// still gets the upstream's answer, not the attacker's.
func TestDataFromWrongFaceIsIgnored(t *testing.T) {
	pe := startPlayedEdge(t)
	edge, up, name := pe.edge, pe.up, pe.name
	alice, mallory := pe.newClient(t), pe.newClient(t)

	if err := alice.SendInterest(&ndn.Interest{Name: name, Kind: ndn.KindContent, Nonce: 1}); err != nil {
		t.Fatal(err)
	}
	up.SetIdleTimeout(liveTimeout)
	if pkt, err := up.Receive(); err != nil || pkt.Interest == nil {
		t.Fatalf("upstream did not see the Interest: pkt=%+v err=%v", pkt, err)
	}
	// Whatever alice is sent from here on is read, so a reply to her never
	// blocks the edge.
	replies := make(chan *ndn.Data, 4)
	go func() {
		defer close(replies)
		alice.SetIdleTimeout(liveTimeout)
		for {
			pkt, err := alice.Receive()
			if err != nil {
				return
			}
			replies <- pkt.Data
		}
	}()
	if err := mallory.SendData(&ndn.Data{Name: name, Content: pe.poison}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the wrong-face Data to be dropped as unsolicited", func() bool { return edge.Stats().Drops == 1 })
	if pending := edge.pit.Len(); pending != 1 {
		t.Errorf("%d entries pending after a wrong-face Data, want alice's 1", pending)
	}
	if cached := edge.CSNames(); len(cached) != 0 {
		t.Errorf("wrong-face content was cached: %v", cached)
	}

	// The upstream's answer arrives on the out-face and is delivered.
	if err := up.SendData(&ndn.Data{Name: name, Content: pe.genuine}); err != nil {
		t.Fatal(err)
	}
	d := <-replies
	if d == nil || d.Content == nil || string(d.Content.Payload) != "public info" {
		t.Fatalf("alice received %+v, want the upstream's content", d)
	}
	if cached := edge.CSNames(); len(cached) != 1 {
		t.Errorf("the solicited content was not cached: %v", cached)
	}
}

// TestUnsolicitedDataTable runs the node core's table of cases
// (internal/node/testdata/unsolicited_data.json, shared with the core's
// own test and the simulator's) through the live forwarder's Data
// pipeline: what the three socket-level tests above show an attacker, case
// by case.
func TestUnsolicitedDataTable(t *testing.T) {
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
			pe := startPlayedEdge(t)
			edge := pe.edge
			face := func(downstream bool) *faceState {
				id := edge.AddFace(&sinkFace{closed: make(chan struct{})}, downstream)
				edge.mu.RLock()
				defer edge.mu.RUnlock()
				return edge.faces[id]
			}
			client, out, other := face(true), face(false), face(false)
			edge.AddRoute(names.MustParse("/prov0"), out.id)
			name, kind := pe.name, ndn.KindContent
			d := &ndn.Data{Name: name, Content: pe.genuine}
			if tc.Registration {
				rogue, err := pki.GenerateECDSA(rand.Reader, names.MustParse("/prov0/KEY/1"))
				if err != nil {
					t.Fatal(err)
				}
				forged, err := core.IssueTag(rogue, names.MustParse("/users/mallory/KEY/1"), 3, core.EmptyAccessPath, time.Now().Add(time.Hour))
				if err != nil {
					t.Fatal(err)
				}
				name, kind = names.MustParse("/prov0/register/mallory"), ndn.KindRegistration
				d = &ndn.Data{Name: name, Registration: &core.RegistrationResponse{Tag: forged}}
			}
			if tc.Pending {
				edge.handleInterest(&ndn.Interest{Name: name, Kind: kind, Nonce: 1}, client, nil, new(core.Content), 0)
			}
			from := out
			if !tc.FromOutFace {
				from = other
			}
			edge.handleData(d, from, nil, 0)
			inserted := edge.Tactic().Bloom().Stats().Insertions == 1
			cached := len(edge.CSNames()) == 1
			if tc.Accepted {
				if inserted != tc.Registration || cached == tc.Registration || edge.pit.Len() != 0 || edge.Stats().Drops != 0 {
					t.Errorf("solicited: inserted %v, cached %v, %d pending, %d drops", inserted, cached, edge.pit.Len(), edge.Stats().Drops)
				}
				return
			}
			if inserted || cached || edge.Stats().Drops != 1 {
				t.Errorf("unsolicited: inserted %v, cached %v, %d drops — want dropped, nothing changed", inserted, cached, edge.Stats().Drops)
			}
			if pending := edge.pit.Len() == 1; pending != tc.Pending {
				t.Errorf("entry pending = %v, want %v", pending, tc.Pending)
			}
		})
	}
}
