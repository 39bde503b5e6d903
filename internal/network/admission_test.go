package network_test

import (
	"math/rand"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/network"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/sim"
	"github.com/tactic-icn/tactic/internal/topology"
)

// TestSimVerifyAdmission drives the edge's verify admission in virtual
// time. Two clients sit behind their own access points, so they reach
// the edge on two faces; the edge verifies on a Bloom-filter miss, each
// verification costs a fixed 100 ms of router CPU, and the budget is two
// outstanding verifications per face, each outstanding until the virtual
// instant its verification completes. Every tag is forged (a distinct
// miss that fails verification), so an admitted Interest is answered
// "forged" and a shed one "overload", both by the edge.
//
//	client(0) — ap(1) ─┐
//	                   edge(4) — core(5)
//	client(2) — ap(3) ─┘
func TestSimVerifyAdmission(t *testing.T) {
	g := buildGraph(
		[]topology.Kind{topology.KindClient, topology.KindAccessPoint, topology.KindClient, topology.KindAccessPoint,
			topology.KindEdgeRouter, topology.KindCoreRouter},
		[][2]int{{0, 1}, {1, 4}, {2, 3}, {3, 4}, {4, 5}},
	)
	engine := sim.NewEngine()
	net := network.New(engine, g, sim.NewStreams(1))
	net.ChargeDelays = true
	net.Delays = sim.OpDelays{
		BFLookup:  sim.NormalDelay{Mean: time.Microsecond},
		BFInsert:  sim.NormalDelay{Mean: time.Microsecond},
		SigVerify: sim.NormalDelay{Mean: 100 * time.Millisecond},
	}
	provKey := names.MustParse("/prov0/KEY/1")
	prov, err := pki.GenerateFast(rand.New(rand.NewSource(1)), provKey)
	if err != nil {
		t.Fatal(err)
	}
	rogue, err := pki.GenerateFast(rand.New(rand.NewSource(2)), provKey)
	if err != nil {
		t.Fatal(err)
	}
	registry := pki.NewRegistry()
	if err := registry.Register(provKey, prov.Public()); err != nil {
		t.Fatal(err)
	}
	edge, err := network.NewRouterNode(net, 4, true, registry, rand.New(rand.NewSource(3)), network.RouterConfig{
		BFCapacity: 500, BFMaxFPP: 1e-4, PITLifetime: 2 * time.Second, VerifyBudget: 2,
		Tactic: core.Config{EdgeValidateOnMiss: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	clients := []*stub{{}, {}}
	net.SetNode(0, clients[0])
	net.SetNode(1, network.NewAPNode(net, 1, 2*time.Second))
	net.SetNode(2, clients[1])
	net.SetNode(3, network.NewAPNode(net, 3, 2*time.Second))
	net.SetNode(4, edge)
	net.SetNode(5, &stub{})

	nonce := uint64(0)
	send := func(c int) {
		t.Helper()
		nonce++
		ap := g.Nodes[2*c+1].ID
		tag, err := core.IssueTag(rogue, names.MustNew("users", "u"+string(rune('a'+nonce)), "KEY", "1"), 3,
			core.EmptyAccessPath.Accumulate(ap), engine.Now().Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		net.SendInterest(2*c, 0, &ndn.Interest{Name: names.MustParse("/prov0/obj/chunk0"), Kind: ndn.KindContent,
			Nonce: nonce, Tag: tag}, 0)
	}
	// answers drains what client c received since the last call, by reason.
	answers := func(c int) map[string]int {
		got := map[string]int{}
		for _, d := range clients[c].data {
			if !d.Nack {
				t.Fatalf("client %d got content for a forged tag", c)
			}
			got[core.ReasonLabel(d.NackReason)]++
		}
		clients[c].data = nil
		return got
	}

	// Three misses on client 0's face arrive at 2 ms, within microseconds
	// of each other: the first two are admitted, outstanding until their
	// verifications complete (at about 102 and 202 ms: the CPU is
	// serialised), and the third is shed. Client 1's face has a budget of
	// its own.
	for k := 0; k < 3; k++ {
		send(0)
	}
	send(1)
	// At 152 ms the first verification has completed and the second has
	// not: one slot is free again, not two.
	engine.RunFor(150 * time.Millisecond)
	send(0)
	send(0)
	engine.Run()
	if got := answers(0); got["forged"] != 3 || got["overload"] != 2 || len(got) != 2 {
		t.Fatalf("client 0: %v, want 3 admitted (refused as forged) and 2 shed", got)
	}
	if got := answers(1); got["forged"] != 1 || len(got) != 1 {
		t.Fatalf("client 1: %v, want admitted on its own face", got)
	}
	// Past every completion instant the face admits up to its budget.
	send(0)
	send(0)
	engine.Run()
	if got := answers(0); got["forged"] != 2 || len(got) != 1 {
		t.Fatalf("client 0 after completion: %v, want both admitted", got)
	}
	if v := edge.Tactic().Validator().Verifications(); v != 6 {
		t.Errorf("edge verifications = %d, want 6 (a shed Interest is never verified)", v)
	}
	if shed := edge.Stats().Drops["overload"]; shed != 2 {
		t.Errorf("overload drops = %d, want 2", shed)
	}

	// The origin admits its verifications through the same queue, as the
	// live origin's verify pool does: three misses on one face within
	// microseconds are two verifications, each outstanding for its 100 ms
	// (the origin's CPU is not serialised), and one shed.
	//
	//	downstream(0) — origin(1)
	t.Run("origin", func(t *testing.T) {
		g := buildGraph([]topology.Kind{topology.KindCoreRouter, topology.KindProvider}, [][2]int{{0, 1}})
		engine := sim.NewEngine()
		onet := network.New(engine, g, sim.NewStreams(1))
		onet.ChargeDelays, onet.Delays = true, net.Delays
		provider, err := core.NewProvider(names.MustParse("/prov0"), prov, time.Minute, rand.New(rand.NewSource(4)))
		if err != nil {
			t.Fatal(err)
		}
		content, err := provider.Publish(names.MustParse("/prov0/obj/chunk0"), 2, []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		origin, err := network.NewOriginNode(onet, 1, provider, registry, rand.New(rand.NewSource(3)),
			network.RouterConfig{BFCapacity: 500, BFMaxFPP: 1e-4, VerifyBudget: 2})
		if err != nil {
			t.Fatal(err)
		}
		origin.AddContent(content)
		down := &stub{}
		onet.SetNode(0, down)
		onet.SetNode(1, origin)
		for k := 0; k < 3; k++ {
			tag, err := core.IssueTag(rogue, names.MustNew("users", "u"+string(rune('a'+k)), "KEY", "1"), 3,
				core.AccessPathOf("ap-0"), engine.Now().Add(time.Hour))
			if err != nil {
				t.Fatal(err)
			}
			onet.SendInterest(0, 0, &ndn.Interest{Name: content.Meta.Name, Kind: ndn.KindContent, Nonce: uint64(k + 1), Tag: tag}, 0)
		}
		engine.Run()
		got := map[string]int{}
		for _, d := range down.data {
			got[core.ReasonLabel(d.NackReason)]++
		}
		if got["forged"] != 2 || got["overload"] != 1 || len(got) != 2 {
			t.Fatalf("origin answers %v, want 2 forged and 1 overload", got)
		}
		if v := origin.Tactic().Validator().Verifications(); v != 2 {
			t.Errorf("origin verifications = %d, want 2", v)
		}
	})
}
