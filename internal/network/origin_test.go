package network_test

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/network"
	"github.com/tactic-icn/tactic/internal/node"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/sim"
	"github.com/tactic-icn/tactic/internal/topology"
)

// origin is what the origin tests drive of the simulator's origin.
type origin interface {
	network.Node
	AddContent(*core.Content)
}

// newOrigin builds the provider's origin at graph index with the tests'
// fixed RNG seed.
func newOrigin(t *testing.T, net *network.Network, index int, provider *core.Provider, verifier pki.Verifier, cfg network.RouterConfig) origin {
	t.Helper()
	o, err := network.NewOriginNode(net, index, provider, verifier, rand.New(rand.NewSource(3)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// answerLog is a downstream node that records every Data it receives
// with its arrival instant.
type answerLog struct {
	engine *sim.Engine
	data   []*ndn.Data
	at     []time.Time
}

func (a *answerLog) HandleInterest(*ndn.Interest, ndn.FaceID) {}
func (a *answerLog) HandleData(d *ndn.Data, _ ndn.FaceID) {
	a.data = append(a.data, d)
	a.at = append(a.at, a.engine.Now())
}

// describe names an answer: "tag" for an issued tag, else "content"
// and/or "nack:<reason>".
func describe(d *ndn.Data) string {
	if d.Registration != nil && d.Registration.Tag != nil {
		return "tag"
	}
	s := ""
	if d.Content != nil {
		s = "content"
	}
	if d.Nack {
		if s != "" {
			s += "+"
		}
		s += "nack:" + core.ReasonLabel(d.NackReason)
	}
	return s
}

// originFixture is one origin over a published level-2 chunk, its
// provider, and the tags the table's Interests carry.
type originFixture struct {
	content              *core.Content
	valid, forged, below *core.Tag
	forged2              *core.Tag
	registration         core.RegistrationRequest
}

// TestOriginAnswers drives the simulator's origin from a stub downstream
// node, one row per way an Interest can end there.
//
//	downstream(0) — origin(1)
func TestOriginAnswers(t *testing.T) {
	delays := sim.OpDelays{
		BFLookup:  sim.NormalDelay{Mean: time.Microsecond},
		BFInsert:  sim.NormalDelay{Mean: time.Microsecond},
		SigVerify: sim.NormalDelay{Mean: 100 * time.Millisecond},
	}
	content := func(f *originFixture, nonce uint64, tag *core.Tag) *ndn.Interest {
		return &ndn.Interest{Name: f.content.Meta.Name, Kind: ndn.KindContent, Nonce: nonce, Tag: tag}
	}
	for _, row := range []struct {
		name      string
		cfg       network.RouterConfig
		charge    bool
		interests func(f *originFixture) []*ndn.Interest
		want      []string
	}{
		{name: "valid tag", interests: func(f *originFixture) []*ndn.Interest {
			return []*ndn.Interest{content(f, 1, f.valid)}
		}, want: []string{"content"}},
		{name: "forged tag", interests: func(f *originFixture) []*ndn.Interest {
			return []*ndn.Interest{content(f, 1, f.forged)}
		}, want: []string{"content+nack:forged"}},
		{name: "tag below the content's level", interests: func(f *originFixture) []*ndn.Interest {
			return []*ndn.Interest{content(f, 1, f.below)}
		}, want: []string{"content+nack:level"}},
		{name: "unpublished name", interests: func(f *originFixture) []*ndn.Interest {
			return []*ndn.Interest{{Name: names.MustParse("/prov0/ghost/chunk0"), Kind: ndn.KindContent, Nonce: 1, Tag: f.valid}}
		}},
		{name: "valid registration", interests: func(f *originFixture) []*ndn.Interest {
			return []*ndn.Interest{{Name: names.MustParse("/prov0/register/alice/n1"), Kind: ndn.KindRegistration,
				Nonce: 1, Registration: &f.registration}}
		}, want: []string{"tag"}},
		{name: "registration without a payload", interests: func(f *originFixture) []*ndn.Interest {
			return []*ndn.Interest{{Name: names.MustParse("/prov0/register/alice/n1"), Kind: ndn.KindRegistration, Nonce: 1}}
		}},
		{name: "drop-content-on-NACK ablation", cfg: network.RouterConfig{DropContentOnNACK: true},
			interests: func(f *originFixture) []*ndn.Interest {
				return []*ndn.Interest{content(f, 1, f.forged)}
			}, want: []string{"content+nack:forged"}},
		{name: "CPU not serialised", charge: true, interests: func(f *originFixture) []*ndn.Interest {
			return []*ndn.Interest{content(f, 1, f.forged), content(f, 2, f.forged2)}
		}, want: []string{"content+nack:forged", "content+nack:forged"}},
	} {
		t.Run(row.name, func(t *testing.T) {
			g := buildGraph([]topology.Kind{topology.KindCoreRouter, topology.KindProvider}, [][2]int{{0, 1}})
			engine := sim.NewEngine()
			net := network.New(engine, g, sim.NewStreams(1))
			net.ChargeDelays = row.charge
			net.Delays = delays
			f, provider, registry := newOriginFixture(t, engine.Now())
			cfg := row.cfg
			cfg.BFCapacity, cfg.BFMaxFPP, cfg.PITLifetime = 500, 1e-4, 2*time.Second
			o := newOrigin(t, net, 1, provider, registry, cfg)
			o.AddContent(f.content)
			down := &answerLog{engine: engine}
			net.SetNode(0, down)
			net.SetNode(1, o)

			start := engine.Now()
			for _, i := range row.interests(f) {
				net.SendInterest(0, 0, i, 0)
			}
			engine.Run()
			got := make([]string, len(down.data))
			for k, d := range down.data {
				got[k] = describe(d)
			}
			if !slices.Equal(got, row.want) {
				t.Fatalf("answers %q, want %q", got, row.want)
			}
			if !row.charge {
				return
			}
			// Each answer is one verification (100 ms) plus two 1 ms hops
			// after its Interest left: the second is not queued behind the
			// first.
			for k, at := range down.at {
				if d := at.Sub(start); d < 100*time.Millisecond || d > 110*time.Millisecond {
					t.Errorf("answer %d after %v, want about 102 ms", k, d)
				}
			}
		})
	}
}

// newOriginFixture publishes a level-2 chunk at a fresh /prov0 provider
// and issues the table's tags: a valid level-3 tag, two distinct forged
// ones, a valid level-1 one, and an enrolled client's registration.
func newOriginFixture(t *testing.T, now time.Time) (*originFixture, *core.Provider, *pki.Registry) {
	t.Helper()
	key := names.MustParse("/prov0/KEY/1")
	signer, err := pki.GenerateFast(rand.New(rand.NewSource(1)), key)
	if err != nil {
		t.Fatal(err)
	}
	rogue, err := pki.GenerateFast(rand.New(rand.NewSource(66)), key)
	if err != nil {
		t.Fatal(err)
	}
	registry := pki.NewRegistry()
	if err := registry.Register(key, signer.Public()); err != nil {
		t.Fatal(err)
	}
	provider, err := core.NewProvider(names.MustParse("/prov0"), signer, time.Minute, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	f := &originFixture{}
	if f.content, err = provider.Publish(names.MustParse("/prov0/obj0/chunk0"), 2, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	ap := core.AccessPathOf("ap-0")
	issue := func(s pki.Signer, who string, level core.AccessLevel) *core.Tag {
		tag, err := core.IssueTag(s, names.MustNew("users", who, "KEY", "1"), level, ap, now.Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		return tag
	}
	f.valid, f.below = issue(signer, "alice", 3), issue(signer, "bob", 1)
	f.forged, f.forged2 = issue(rogue, "mallory", 3), issue(rogue, "trudy", 3)

	clientKey, err := pki.GenerateFast(rand.New(rand.NewSource(10)), names.MustParse("/users/carol/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := core.NewClient(clientKey, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	provider.Enroll(cl.KeyLocator(), clientKey.Public(), 3)
	if f.registration, err = cl.NewRegistrationRequest(ap); err != nil {
		t.Fatal(err)
	}
	return f, provider, registry
}

// TestOriginRefusesData is the simulator's side of the live origin's
// refusal: nothing is upstream of an origin, so every Data it hears is
// unsolicited — counted, neither cached into the catalogue nor, as a
// registration response, inserted into its Bloom filter.
func TestOriginRefusesData(t *testing.T) {
	g := buildGraph([]topology.Kind{topology.KindCoreRouter, topology.KindProvider}, [][2]int{{0, 1}})
	engine := sim.NewEngine()
	net := network.New(engine, g, sim.NewStreams(1))
	f, provider, registry := newOriginFixture(t, engine.Now())
	o, err := network.NewOriginNode(net, 1, provider, registry, rand.New(rand.NewSource(3)),
		network.RouterConfig{BFCapacity: 500, BFMaxFPP: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	o.AddContent(f.content)
	net.SetNode(0, &stub{})
	net.SetNode(1, o)
	stray, err := provider.Publish(names.MustParse("/prov0/stray/chunk0"), 2, []byte("stray"))
	if err != nil {
		t.Fatal(err)
	}
	net.SendData(0, 0, &ndn.Data{Name: stray.Meta.Name, Content: stray}, 0)
	net.SendData(0, 0, &ndn.Data{Name: names.MustParse("/prov0/register/alice/n1"),
		Registration: &core.RegistrationResponse{Tag: f.valid}}, 0)
	engine.Run()
	st := o.Stats()
	if n := st.Drops[node.DropUnsolicited]; n != 2 {
		t.Errorf("unsolicited drops = %d, want 2", n)
	}
	if n := len(o.CSNames()); n != 1 {
		t.Errorf("catalogue holds %d chunks, want the 1 published", n)
	}
	if st.Ops.Insertions != 0 || o.Tactic().Bloom().FillRatio() != 0 {
		t.Errorf("Bloom filter changed: %d insertions, fill %g", st.Ops.Insertions, o.Tactic().Bloom().FillRatio())
	}
}
