package ndn

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
)

// These tests hammer the tables from many goroutines and are meant to
// run under -race (see the Makefile's race target). The assertions are
// deterministic: counters must balance exactly no matter how the
// schedule interleaves.

func TestPITConcurrentAdmitSameName(t *testing.T) {
	pit := NewPIT()
	name := names.MustParse("/prov0/obj/chunk0")
	now := time.Now()
	expires := now.Add(time.Second)

	const workers = 32
	var wg sync.WaitGroup
	outcomes := make([]AdmitOutcome, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outcomes[i], _ = pit.Admit(name, PITRecord{InFace: FaceID(i + 1), Nonce: uint64(i + 1)}, now, expires)
		}(i)
	}
	wg.Wait()

	news, aggs := 0, 0
	for _, o := range outcomes {
		switch o {
		case PITNew:
			news++
		case PITAggregated:
			aggs++
		default:
			t.Fatalf("unexpected outcome %v", o)
		}
	}
	if news != 1 || aggs != workers-1 {
		t.Fatalf("outcomes: %d new, %d aggregated; want 1, %d", news, aggs, workers-1)
	}
	created, aggregated, _ := pit.Stats()
	if created != 1 || aggregated != workers-1 {
		t.Fatalf("stats: created %d aggregated %d; want 1, %d", created, aggregated, workers-1)
	}
	e, ok := pit.Consume(name)
	if !ok {
		t.Fatal("entry vanished")
	}
	if len(e.Records) != workers {
		t.Fatalf("records = %d, want %d (every requester must be remembered)", len(e.Records), workers)
	}
	if pit.Len() != 0 {
		t.Fatalf("PIT not empty after Consume: %d", pit.Len())
	}
}

func TestPITConcurrentDuplicateNonce(t *testing.T) {
	pit := NewPIT()
	name := names.MustParse("/prov0/obj/chunk1")
	now := time.Now()
	expires := now.Add(time.Second)

	// Every goroutine presents the SAME nonce: exactly one may create the
	// entry; every other attempt must be reported as a duplicate.
	const workers = 32
	var wg sync.WaitGroup
	outcomes := make([]AdmitOutcome, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outcomes[i], _ = pit.Admit(name, PITRecord{InFace: FaceID(i + 1), Nonce: 42}, now, expires)
		}(i)
	}
	wg.Wait()

	news, dups := 0, 0
	for _, o := range outcomes {
		switch o {
		case PITNew:
			news++
		case PITDuplicate:
			dups++
		default:
			t.Fatalf("unexpected outcome %v", o)
		}
	}
	if news != 1 || dups != workers-1 {
		t.Fatalf("outcomes: %d new, %d duplicate; want 1, %d", news, dups, workers-1)
	}
}

func TestPITConcurrentAdmitConsume(t *testing.T) {
	pit := NewPIT()
	now := time.Now()
	expires := now.Add(time.Minute)

	// Admitters and consumers race on a shared set of names. Whatever the
	// interleaving, every created entry is consumed at most once and the
	// table drains to empty.
	const namesN, rounds = 8, 200
	nn := make([]names.Name, namesN)
	for i := range nn {
		nn[i] = names.MustParse(fmt.Sprintf("/prov0/obj/chunk%d", i))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				n := nn[r%namesN]
				outcome, _ := pit.Admit(n, PITRecord{InFace: FaceID(w + 1), Nonce: uint64(w)<<32 | uint64(r)}, now, expires)
				if outcome == PITNew {
					pit.SetOutFace(n, FaceID(100+w))
				}
			}
		}(w)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				pit.Consume(nn[r%namesN])
			}
		}()
	}
	wg.Wait()
	for i := range nn {
		pit.Consume(nn[i])
	}
	if pit.Len() != 0 {
		t.Fatalf("PIT holds %d entries after draining", pit.Len())
	}
}

// TestPITRecycleUnderSweeps: workers admit and consume-from a
// shared set of names — each consume hands its entry back to the table —
// while a sweeper takes entries out through ExpireBefore and
// DropByOutFace and holds on to them. Every record, however it is
// delivered, must carry the tag it was admitted with under the name it
// was admitted for, and an entry the sweeper holds must still read so at
// the end: a recycled entry is never observable through an old handle.
func TestPITRecycleUnderSweeps(t *testing.T) {
	pit := NewPIT()
	t0 := time.Now()
	const namesN, workers, rounds = 8, 2, 4000
	const outFace, doomedFace = FaceID(7), FaceID(9)
	nn := make([]names.Name, namesN)
	tags := make([]*core.Tag, namesN)
	for i := range nn {
		nn[i] = names.MustParse(fmt.Sprintf("/prov0/obj/chunk%d", i))
		tags[i] = &core.Tag{Level: core.AccessLevel(i)}
	}
	// A record's nonce names the name it was admitted for.
	check := func(how string, name names.Name, recs []PITRecord) {
		for _, rec := range recs {
			idx := rec.Nonce % namesN
			if rec.Tag != tags[idx] || !name.Equal(nn[idx]) {
				t.Errorf("%s: record with nonce %d (admitted for %s) delivered under %s with tag level %d",
					how, rec.Nonce, nn[idx], name, rec.Tag.Level)
			}
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var scratch [4]PITRecord
			for r := 0; r < rounds; r++ {
				idx := (r + w) % namesN
				rec := PITRecord{Tag: tags[idx], InFace: FaceID(w + 1), Nonce: uint64((r*workers+w)*namesN + idx)}
				// Every fourth entry is born expired and every fifth is
				// forwarded to the face the sweeper flushes.
				expires, face := t0.Add(time.Minute), outFace
				if r%4 == 0 {
					expires = t0
				}
				if r%5 == 0 {
					face = doomedFace
				}
				if outcome, _ := pit.Admit(nn[idx], rec, t0.Add(-time.Second), expires); outcome == PITNew {
					pit.SetOutFace(nn[idx], face)
				}
				if recs, ok := pit.ConsumeFrom(nn[idx], outFace, scratch[:0]); ok {
					check("ConsumeFrom", nn[idx], recs)
				}
			}
		}(w)
	}
	// The sweeper keeps each entry it is handed beside a copy of what the
	// entry read at that moment.
	type handle struct {
		entry *PITEntry
		name  names.Name
		recs  []PITRecord
	}
	stop := make(chan struct{})
	swept := make(chan []handle, 1)
	go func() {
		var held []handle
		for {
			for _, e := range append(pit.ExpireBefore(t0), pit.DropByOutFace(doomedFace)...) {
				held = append(held, handle{e, e.Name, append([]PITRecord(nil), e.Records...)})
			}
			select {
			case <-stop:
				swept <- held
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	held := <-swept
	for _, h := range held {
		check("swept entry", h.name, h.recs)
		if !h.entry.Name.Equal(h.name) || !slices.Equal(h.entry.Records, h.recs) {
			t.Errorf("entry swept for %s with %d records now reads %s with %d: it was reused under its holder",
				h.name, len(h.recs), h.entry.Name, len(h.entry.Records))
		}
	}
	if len(held) == 0 {
		t.Error("the sweeper never took an entry: the test raced nothing")
	}
}

func TestCSConcurrentInsertEvict(t *testing.T) {
	const capacity = 32
	cs := NewCS(capacity)

	// Writers insert far more distinct names than the store holds while
	// readers look up the same key space; capacity must hold throughout
	// and the hit/miss/eviction counters must stay coherent.
	const workers, perWorker = 8, 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				n := names.MustParse(fmt.Sprintf("/prov0/obj%d/chunk%d", w, i%64))
				cs.Insert(&core.Content{Meta: core.ContentMeta{Name: n}})
				if got := cs.Len(); got > capacity {
					t.Errorf("CS over capacity: %d > %d", got, capacity)
					return
				}
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				n := names.MustParse(fmt.Sprintf("/prov0/obj%d/chunk%d", w, i%64))
				if c, ok := cs.Lookup(n); ok && c == nil {
					t.Error("Lookup returned ok with nil content")
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if got := cs.Len(); got > capacity {
		t.Fatalf("CS over capacity after quiescence: %d > %d", got, capacity)
	}
	hits, misses, _ := cs.Stats()
	if hits+misses != workers*perWorker {
		t.Fatalf("hits %d + misses %d != lookups %d", hits, misses, workers*perWorker)
	}
}

// TestCSConcurrentCopyOut races inserts that evict and rewrite slots
// against hits copied into each reader's reused Content. Every chunk's
// payload and signature are one fill byte, its own under its name and
// generation, so a copy torn by a concurrent rewrite shows as mixed
// bytes; under the race detector an unlocked read of a slot is reported.
func TestCSConcurrentCopyOut(t *testing.T) {
	const capacity, universe, rounds = 8, 24, 300
	cs := NewCS(capacity)
	nm := make([]names.Name, universe)
	for i := range nm {
		nm[i] = names.MustParse(fmt.Sprintf("/prov0/obj/chunk%d", i))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (r*7 + w) % universe
				fill := byte(i*16 + r%16)
				cs.Insert(&core.Content{Meta: core.ContentMeta{Name: nm[i], Level: 1},
					Payload: bytes.Repeat([]byte{fill}, 512+i), Signature: []byte{fill, fill}})
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			var dst core.Content
			for r := 0; r < rounds; r++ {
				i := (r*5 + w) % universe
				c, ok := cs.LookupInto(nm[i], &dst)
				if !ok {
					continue
				}
				fill := c.Signature[0]
				if !c.Meta.Name.Equal(nm[i]) || int(fill)/16 != i%16 || len(c.Payload) != 512+i ||
					!bytes.Equal(c.Payload, bytes.Repeat([]byte{fill}, len(c.Payload))) || c.Signature[1] != fill {
					t.Errorf("hit for %s is torn: %s, %d bytes, signature %x", nm[i], c.Meta.Name, len(c.Payload), c.Signature)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if cs.Len() > capacity {
		t.Fatalf("CS over capacity: %d > %d", cs.Len(), capacity)
	}
}

// TestCSReinsertReplacesContent: re-inserting a name refreshes it in
// place rather than growing the store, and a lookup returns the newest
// chunk.
func TestCSReinsertReplacesContent(t *testing.T) {
	cs := NewCS(16)
	n := names.MustParse("/prov0/obj/chunk0")
	for i := 0; i < 5; i++ {
		cs.Insert(&core.Content{Meta: core.ContentMeta{Name: n}, Payload: []byte{byte(i)}})
	}
	if cs.Len() != 1 {
		t.Fatalf("Len = %d after re-inserting one name, want 1", cs.Len())
	}
	c, ok := cs.Lookup(n)
	if !ok || len(c.Payload) != 1 || c.Payload[0] != 4 {
		t.Fatalf("Lookup returned stale content: %+v ok=%v", c, ok)
	}
}

func TestLockedFIBConcurrentLookup(t *testing.T) {
	fib := NewLockedFIB()
	prefix := names.MustParse("/prov0")
	fib.Insert(prefix, 7)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own := names.MustParse(fmt.Sprintf("/w%d", w))
			for i := 0; i < 200; i++ {
				fib.Insert(own, FaceID(w))
				if face, ok := fib.Lookup(names.MustParse("/prov0/obj/chunk0")); !ok || face != 7 {
					t.Errorf("Lookup = %v, %v; want 7, true", face, ok)
					return
				}
				fib.Remove(own)
			}
		}(w)
	}
	wg.Wait()
	if fib.Len() != 1 {
		t.Fatalf("FIB holds %d routes, want 1", fib.Len())
	}
}
