package main

import (
	"crypto/sha256"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
)

// tinyWorld is a hand-built world of a few unsigned chunks and one tag:
// enough for the generator, which never looks inside either.
func tinyWorld(chunks int) (*world, []*core.Content) {
	w := &world{
		prefix:    names.MustNew("prov0"),
		nameIndex: make(map[string]int),
		digests:   make([][sha256.Size]byte, chunks),
		known:     make([]bool, chunks),
	}
	var contents []*core.Content
	for i := 0; i < chunks; i++ {
		n := w.prefix.MustAppend("obj", "chunk"+strconv.Itoa(i))
		payload := []byte("payload of chunk " + strconv.Itoa(i))
		w.names = append(w.names, n)
		w.nameIndex[n.Key()] = i
		w.digests[i], w.known[i] = sha256.Sum256(payload), true
		contents = append(contents, &core.Content{
			Meta:    core.ContentMeta{Name: n, Level: accessLevel, ProviderKey: w.prefix.MustAppend("KEY", "1")},
			Payload: payload,
		})
	}
	tag := &core.Tag{ProviderKey: w.prefix.MustAppend("KEY", "1"), Level: accessLevel,
		ClientKey: names.MustNew("users", "u0", "KEY", "1"), Expiry: time.Now().Add(time.Hour), Signature: []byte("sig")}
	tag.Encode()
	w.tags = []*core.Tag{tag}
	return w, contents
}

// The peer gathers Interests until the generator stops sending (it is
// waiting for replies), checks that no name is outstanding twice, and
// answers newest first. The generator has four names and a window of
// sixteen, so it must hold back; and every reply arrives out of order.
func TestGeneratorNeverDoublesANameAndSurvivesReordering(t *testing.T) {
	const chunks, requests = 4, 200
	w, contents := tinyWorld(chunks)
	pair, err := newFacePair("tcp")
	if err != nil {
		t.Fatal(err)
	}
	defer pair.close()

	var peer sync.WaitGroup
	peer.Add(1)
	maxOutstanding := 0
	go func() {
		defer peer.Done()
		face := pair.accepted
		face.SetIdleTimeout(5 * time.Millisecond)
		var held []*ndn.Interest
		for {
			pkt, err := face.Receive()
			switch {
			case err == nil && pkt.Interest != nil:
				for _, h := range held {
					if h.Name.Equal(pkt.Interest.Name) {
						t.Errorf("two Interests for %s are outstanding on one connection", h.Name)
					}
				}
				held = append(held, pkt.Interest)
				maxOutstanding = max(maxOutstanding, len(held))
			case err != nil && isTimeout(err):
				for i := len(held) - 1; i >= 0; i-- {
					in := held[i]
					d := &ndn.Data{Name: in.Name, Content: contents[w.nameIndex[in.Name.Key()]], Tag: in.Tag}
					if err := face.SendData(d); err != nil {
						t.Errorf("peer send: %v", err)
						return
					}
				}
				held = held[:0]
			case err != nil:
				return // the generator closed the connection
			}
		}
	}()

	sched := &connSchedule{names: []int{2, 0, 3, 1}, tags: []int{0}, tagRun: 1}
	c := &conn{face: pair.dialled, w: w, sched: sched, pending: make([]slot, chunks)}
	if err := c.drive(loadedWindow, time.Time{}, requests); err != nil {
		t.Fatal(err)
	}
	pair.dialled.Close()
	peer.Wait()

	if c.counts.ops != requests || c.counts.failed != 0 || c.counts.stray != 0 || len(c.lat) != requests {
		t.Errorf("counts %+v with %d latencies, want %d good operations", c.counts, len(c.lat), requests)
	}
	if maxOutstanding != chunks {
		t.Errorf("at most %d Interests were outstanding, want %d (one per name)", maxOutstanding, chunks)
	}
}

// A reply that is not what was published and a NACK for a genuine tag are
// failed operations, each of its kind; content for a forged tag is counted
// and judged in bulk against the filter's false-positive rate.
func TestCheckClassifiesReplies(t *testing.T) {
	w, contents := tinyWorld(2)
	c := &conn{w: w}
	good := &ndn.Data{Name: w.names[0], Content: contents[0]}
	wrongPayload := &ndn.Data{Name: w.names[0], Content: &core.Content{Meta: contents[0].Meta, Payload: []byte("poison")}}
	wrongName := &ndn.Data{Name: w.names[0], Content: contents[1]}
	nack := &ndn.Data{Name: w.names[0], Content: contents[0], Nack: true, NackReason: core.ErrTagForged}
	shed := &ndn.Data{Name: w.names[0], Nack: true, NackReason: core.ErrOverload}
	for _, tc := range []struct {
		name   string
		d      *ndn.Data
		forged bool
		ok     bool
		want   opCounts
	}{
		{"genuine served", good, false, true, opCounts{}},
		{"wrong payload", wrongPayload, false, false, opCounts{mismatch: 1}},
		{"wrong content name", wrongName, false, false, opCounts{mismatch: 1}},
		{"genuine NACKed", nack, false, false, opCounts{badNACK: 1}},
		{"forged NACKed as forged", nack, true, true, opCounts{}},
		{"forged shed", shed, true, false, opCounts{badNACK: 1}},
		{"forged served", good, true, true, opCounts{forgedLeaked: 1}},
	} {
		c.counts = opCounts{}
		if ok := c.check(tc.d, 0, tc.forged); ok != tc.ok || c.counts != tc.want {
			t.Errorf("%s: ok=%v counts=%+v, want ok=%v counts=%+v", tc.name, ok, c.counts, tc.ok, tc.want)
		}
	}
}

// A peer that never answers: every outstanding operation fails on the
// idle time-out, and a phase with failed operations breaks the run
// whatever the workload.
func TestTimeoutFailsTheOperationsAndTheRun(t *testing.T) {
	const chunks, requests = 4, 3
	w, _ := tinyWorld(chunks)
	pair, err := newFacePair("tcp")
	if err != nil {
		t.Fatal(err)
	}
	defer pair.close()
	pair.dialled.SetIdleTimeout(20 * time.Millisecond)

	sched := &connSchedule{names: []int{0, 1, 2, 3}, tags: []int{0}, tagRun: 1}
	c := &conn{face: pair.dialled, w: w, sched: sched, pending: make([]slot, chunks)}
	if err := c.drive(loadedWindow, time.Time{}, requests); err != nil {
		t.Fatal(err)
	}
	want := opCounts{ops: requests, failed: requests, timeouts: requests}
	if c.counts != want || len(c.lat) != 0 || c.outstanding != 0 {
		t.Errorf("counts %+v, %d latencies, %d outstanding; want %+v and none", c.counts, len(c.lat), c.outstanding, want)
	}
	for _, wl := range workloads {
		v := wl.violations("loaded", phaseStats{counts: c.counts})
		if len(v) == 0 || !strings.Contains(v[0], "3 of 3 operations failed: 3 timed out") {
			t.Errorf("%s: violations %q do not report the failed operations", wl.name, v)
		}
	}
}
