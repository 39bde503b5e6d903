package forwarder

import (
	"crypto/rand"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/transport"
	"github.com/tactic-icn/tactic/internal/transport/chaos"
)

// medianOf returns the median of a non-empty latency sample.
func medianOf(d []time.Duration) time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[len(d)/2]
}

// slowVerify inflates every signature verification by a fixed latency
// before delegating. The soak runs on whatever CPU the CI box has —
// often a single core — so modelling the verify cliff as *latency*
// (what the paper's 100µs-class crypto is to a line-rate data plane)
// rather than as CPU burn keeps the measurement about admission
// isolation instead of raw core starvation, which no admission policy
// can mask.
type slowVerify struct {
	inner pki.Verifier
	d     time.Duration
}

func (s slowVerify) Verify(locator names.Name, msg, sig []byte) error {
	time.Sleep(s.d)
	return s.inner.Verify(locator, msg, sig)
}

// TestSoakVerifyFlood is the admission-control acceptance soak: one
// face floods the edge with never-before-seen forged tags (over a
// lossy chaos link, so the attack traffic itself is jittered), while
// 15 victim faces keep fetching warm content on the hit path. The
// verify pool must cap the flooding face — sheds observed on the
// router, Overload NACKs observed by the attacker — and the victims'
// median hit latency must stay within 2x their pre-flood baseline
// (with an absolute floor so scheduler noise on a loaded CI box
// cannot fail the bound).
func TestSoakVerifyFlood(t *testing.T) {
	if testing.Short() {
		t.Skip("live soak in -short mode")
	}
	fn := startFaultNetCfg(t, nil, func(cfg *Config) {
		cfg.Tactic.EdgeValidateOnMiss = true
		// One worker over a 2ms verifier and a small budget: drain rate
		// ~500 verifies/s, so even a self-clocked flood outruns it and
		// must be shed, deterministically and without burning the CPU
		// the victims need.
		cfg.Verifier = slowVerify{inner: cfg.Registry, d: 2 * time.Millisecond}
		cfg.VerifyWorkers = 1
		cfg.VerifyBudget = 16
	})
	defer fn.Close()

	const victims = 15
	const perPhase = 30 // hit-path fetches per victim per phase

	clients := make([]*Client, victims)
	for i := range clients {
		clients[i] = fn.enrolledClient(fmt.Sprintf("victim%d", i))
		defer clients[i].Close()
		// Warm victim i's chunk into the edge CS and its tag into the
		// BF, so the measured phases below run the pure hit path.
		if _, err := clients[i].Fetch(fn.prefix.MustAppend("soak", "chunk"+strconv.Itoa(i)), 2*time.Second); err != nil {
			t.Fatalf("victim %d warmup: %v", i, err)
		}
	}

	// measure runs each victim's hit-path loop concurrently and returns
	// the per-victim median latencies.
	measure := func() []time.Duration {
		medians := make([]time.Duration, victims)
		var wg sync.WaitGroup
		for i, cl := range clients {
			wg.Add(1)
			go func(i int, cl *Client) {
				defer wg.Done()
				name := fn.prefix.MustAppend("soak", "chunk"+strconv.Itoa(i))
				lat := make([]time.Duration, 0, perPhase)
				for k := 0; k < perPhase; k++ {
					start := time.Now()
					if _, err := cl.Fetch(name, 2*time.Second); err != nil {
						t.Errorf("victim %d fetch %d: %v", i, k, err)
						return
					}
					lat = append(lat, time.Since(start))
				}
				medians[i] = medianOf(lat)
			}(i, cl)
		}
		wg.Wait()
		return medians
	}

	baseline := measure()
	if t.Failed() {
		t.Fatal("baseline phase failed; network unhealthy before the flood")
	}

	// The flooding face: a raw transport conn over a lossy chaos link.
	// Tags are pre-minted (signing is expensive; doing it inline would
	// contend with the victims for CPU and measure the test harness,
	// not the router) and cycled — a forged tag never enters the BF, so
	// each reuse still demands a verification slot.
	rogue, err := pki.GenerateECDSA(rand.Reader, names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	pool := make([]*core.Tag, 256)
	for i := range pool {
		pool[i], err = core.IssueTag(rogue,
			names.MustNew("users", fmt.Sprintf("flood%d", i), "KEY", "1"),
			3, core.EmptyAccessPath.Accumulate("edge-0"), time.Now().Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
	}
	dial := chaos.Dialer(chaos.Config{Seed: 7, Drop: 0.05})
	raw, err := dial(fn.edgeAddr)
	if err != nil {
		t.Fatal(err)
	}
	flood := transport.New(raw)

	var stop atomic.Bool
	var overloads, sent atomic.Int64
	floodDone := make(chan struct{})
	go func() {
		defer close(floodDone)
		// Self-clocked window: keep enough in flight to saturate the
		// budget (window > budget) without unbounded queueing. Dropped
		// frames under chaos shrink the effective window; that only
		// makes the flood burstier.
		const window = 48
		outstanding := 0
		readOne := func() bool {
			pkt, err := flood.Receive()
			if err != nil {
				return false
			}
			outstanding--
			if pkt.Data != nil && pkt.Data.Nack && errors.Is(pkt.Data.NackReason, core.ErrOverload) {
				overloads.Add(1)
			}
			return true
		}
		for serial := uint64(1); !stop.Load(); serial++ {
			if err := flood.SendInterest(&ndn.Interest{
				Name:  fn.prefix.MustAppend("soak", "chunk0"),
				Kind:  ndn.KindContent,
				Nonce: 1<<62 | serial,
				Tag:   pool[serial%uint64(len(pool))],
			}); err != nil {
				return // chaos reset or shutdown race: the flood just ends
			}
			sent.Add(1)
			outstanding++
			if outstanding >= window && !readOne() {
				return
			}
		}
	}()

	// Let the flood saturate the budget before measuring the victims.
	deadline := time.Now().Add(5 * time.Second)
	for fn.edgeFwd.Stats().VerifySheds == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("flood never shed (sent %d): admission cap not engaged", sent.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}

	flooded := measure()
	stop.Store(true)
	flood.Close()
	<-floodDone
	if t.Failed() {
		t.FailNow()
	}

	sheds := fn.edgeFwd.Stats().VerifySheds
	t.Logf("flood: %d sent, %d sheds at the edge, %d Overload NACKs seen by the attacker",
		sent.Load(), sheds, overloads.Load())
	t.Logf("victim median hit latency: baseline %v, under flood %v", medianOf(baseline), medianOf(flooded))
	if sheds == 0 {
		t.Error("edge never shed the flooding face")
	}
	if overloads.Load() == 0 {
		t.Error("flooding face never received an Overload NACK")
	}
	// Per-victim bound: ≤ 2x that victim's own baseline, with an
	// absolute floor so microsecond-scale baselines don't turn
	// scheduler jitter on a shared CI core into failures.
	const floor = 20 * time.Millisecond
	for i := range flooded {
		limit := 2 * baseline[i]
		if limit < floor {
			limit = floor
		}
		if flooded[i] > limit {
			t.Errorf("victim %d hit latency %v under flood exceeds limit %v (baseline %v)",
				i, flooded[i], limit, baseline[i])
		}
	}
}
