package main

import (
	"slices"
	"testing"
)

func take(s *connSchedule, n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, wl := range workloads {
		a, b, c := newPlan(wl, 7, 2), newPlan(wl, 7, 2), newPlan(wl, 8, 2)
		for conn := range a.conns {
			ra, rb, rc := take(a.conns[conn], 4096), take(b.conns[conn], 4096), take(c.conns[conn], 4096)
			if !slices.Equal(ra, rb) {
				t.Errorf("%s connection %d: equal seeds gave different schedules", wl.name, conn)
			}
			if slices.Equal(ra, rc) {
				t.Errorf("%s connection %d: different seeds gave the same schedule", wl.name, conn)
			}
		}
	}
}

func TestScheduleShapes(t *testing.T) {
	for _, wl := range workloads {
		p := newPlan(wl, 3, 2)
		wantNames, wantTags := hotNames, hotTags
		if wl.scanAll {
			wantNames = chunkCount
		}
		if wl.churn {
			wantTags = subscriberCount
		}
		if len(p.names) != wantNames {
			t.Errorf("%s: %d names, want %d", wl.name, len(p.names), wantNames)
		}
		seenName, seenTag := make(map[int]int), make(map[int]int)
		for conn, s := range p.conns {
			reqs := take(s, max(2*len(s.names), s.tagRun*len(s.tags)))
			forged, needs := 0, 0
			for i, r := range reqs {
				if owner, ok := seenName[r.name]; ok && owner != conn {
					t.Fatalf("%s: name %d is requested by connections %d and %d", wl.name, r.name, owner, conn)
				}
				if owner, ok := seenTag[r.tag]; ok && owner != conn {
					t.Fatalf("%s: tag %d is used by connections %d and %d", wl.name, r.tag, owner, conn)
				}
				seenName[r.name], seenTag[r.tag] = conn, conn
				// A name recurs only after the connection's whole cycle, far
				// beyond any window.
				for j := max(0, i-4*loadedWindow); j < i; j++ {
					if reqs[j].name == r.name {
						t.Fatalf("%s: name %d recurs %d requests apart", wl.name, r.name, i-j)
					}
				}
				if r.forged {
					forged++
				}
				if r.needsVerify {
					needs++
				}
			}
			switch {
			case wl.churn:
				if forged != len(reqs)/forgedEvery {
					t.Errorf("%s: %d forged in %d requests, want one in %d", wl.name, forged, len(reqs), forgedEvery)
				}
				if lo := len(reqs)/churnTagRun + forged; needs < lo {
					t.Errorf("%s: %d requests need verifying, want at least %d", wl.name, needs, lo)
				}
			case forged+needs != 0:
				t.Errorf("%s: forged=%d needsVerify=%d, want none", wl.name, forged, needs)
			}
		}
		if len(seenName) != wantNames || len(seenTag) != wantTags {
			t.Errorf("%s: whole cycles touched %d names and %d tags, want %d and %d",
				wl.name, len(seenName), len(seenTag), wantNames, wantTags)
		}
	}
}
