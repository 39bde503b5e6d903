package forwarder

import (
	"crypto/rand"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/transport"
)

// TestLiveDuplicateTagVerifiedOnce floods an edge router from many faces
// with Interests that all carry the SAME valid-but-uncached tag. The
// concurrent pipeline must collapse the burst to exactly one signature
// verification: the first face's miss leads, every other face's miss
// attaches to it in the verify pool, and all are answered from its one
// outcome. The verifier is held until all sixteen have parked, so the
// count does not depend on the schedule. Run under -race via the
// Makefile's race target.
func TestLiveDuplicateTagVerifiedOnce(t *testing.T) {
	reg := pki.NewRegistry()
	provKey, err := pki.GenerateECDSA(rand.Reader, names.MustNew("prov0", "KEY", "1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(provKey.Locator(), provKey.Public()); err != nil {
		t.Fatal(err)
	}

	gate := &gatePKI{inner: reg}
	gate.hold()
	edge, err := New(Config{
		ID:       "edge-dup",
		Role:     RoleEdge,
		Registry: reg,
		Verifier: gate,
		Tactic:   core.Config{EdgeValidateOnMiss: true},
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()
	defer gate.release()

	const faces = 16
	conns := make([]net.Conn, faces)
	for i := range conns {
		cSide, fSide := net.Pipe()
		conns[i] = cSide
		defer cSide.Close()
		edge.AddFace(transport.New(fSide), true)
	}

	ap := core.EmptyAccessPath.Accumulate("edge-dup")
	tag, err := core.IssueTag(provKey, names.MustNew("users", "dup", "KEY", "1"), 1, ap, time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}

	// Distinct names keep the PIT out of the way (no aggregation): every
	// Interest runs edge enforcement itself. There is no route for any of
	// them, so each is validated and then dropped — exactly the
	// enforcement work an unauthorized-burst flood costs the router.
	frames := make([][]byte, faces)
	for i := range frames {
		frames[i], err = ndn.EncodeInterest(&ndn.Interest{
			Name:  names.MustParse(fmt.Sprintf("/prov0/obj%d/chunk0", i)),
			Kind:  ndn.KindContent,
			Nonce: uint64(i + 1),
			Tag:   tag,
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			if _, err := conns[i].Write(frames[i]); err != nil {
				t.Errorf("face %d write: %v", i, err)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	waitFor(t, "every other face to attach to the leader", func() bool { return edge.vp.Parked() == faces-1 })
	gate.release()

	deadline := time.Now().Add(5 * time.Second)
	for edge.Stats().Drops < faces {
		if time.Now().After(deadline) {
			t.Fatalf("edge processed %d/%d Interests before deadline", edge.Stats().Drops, faces)
		}
		time.Sleep(time.Millisecond)
	}

	if got := edge.Tactic().Validator().Verifications(); got != 1 {
		t.Errorf("%d faces with one shared tag cost %d verifications, want exactly 1", faces, got)
	}
	if got := edge.vp.Coalesced(); got != faces-1 {
		t.Errorf("coalesced = %d, want %d", got, faces-1)
	}
	if inFlight := edge.Tactic().Validator().InFlight(); inFlight != 0 {
		t.Errorf("InFlight = %d after quiescence, want 0", inFlight)
	}
}
