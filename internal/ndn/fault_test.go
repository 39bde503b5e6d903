package ndn

import (
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/names"
)

func TestFIBRemoveFace(t *testing.T) {
	f := NewFIB()
	f.Insert(names.MustParse("/prov0"), 3)
	f.Insert(names.MustParse("/prov1"), 3)
	f.Insert(names.MustParse("/prov2/deep/prefix"), 4)

	if n := f.RemoveFace(3); n != 2 {
		t.Errorf("RemoveFace(3) = %d, want 2", n)
	}
	if _, ok := f.Lookup(names.MustParse("/prov0/obj")); ok {
		t.Error("route via dead face survived")
	}
	if _, ok := f.Lookup(names.MustParse("/prov1/obj")); ok {
		t.Error("second route via dead face survived")
	}
	if face, ok := f.Lookup(names.MustParse("/prov2/deep/prefix/obj")); !ok || face != 4 {
		t.Errorf("unrelated route lost: (%v, %v)", face, ok)
	}
	if n := f.RemoveFace(3); n != 0 {
		t.Errorf("second RemoveFace(3) = %d, want 0", n)
	}
	if f.Len() != 1 {
		t.Errorf("Len = %d, want 1", f.Len())
	}
}

func TestPITOutFaceDefaultsToNone(t *testing.T) {
	forEachPIT(t, func(t *testing.T, p *PIT) {
		now := time.Now()
		if outcome, _ := p.Admit(names.MustParse("/a/b"), PITRecord{InFace: 1, Nonce: 1}, now, now.Add(time.Second)); outcome != PITNew {
			t.Fatal("entry not created")
		}
		// Face 0 is a valid face; an unforwarded entry must not match it.
		if dropped := p.DropByOutFace(0); len(dropped) != 0 {
			t.Errorf("DropByOutFace(0) flushed %d unforwarded entries", len(dropped))
		}
		if e, ok := p.Consume(names.MustParse("/a/b")); !ok || e.OutFace != FaceNone {
			t.Errorf("unforwarded entry = (%+v, %v), want OutFace FaceNone", e, ok)
		}
	})
}

func TestPITDropByOutFace(t *testing.T) {
	forEachPIT(t, func(t *testing.T, p *PIT) {
		now := time.Now()
		exp := now.Add(time.Second)
		for i, upstream := range []FaceID{7, 7, 9} {
			name := names.MustParse("/a").MustAppend("c" + string(rune('0'+i)))
			p.Admit(name, PITRecord{InFace: 1, Nonce: uint64(i)}, now, exp)
			p.SetOutFace(name, upstream)
		}

		dropped := p.DropByOutFace(7)
		if len(dropped) != 2 {
			t.Fatalf("dropped %d entries, want 2", len(dropped))
		}
		for _, e := range dropped {
			if e.OutFace != 7 {
				t.Errorf("flushed entry with OutFace %v", e.OutFace)
			}
		}
		if p.Len() != 1 {
			t.Errorf("Len = %d, want 1", p.Len())
		}
		// The survivor is still retrievable and still points at face 9.
		e, ok := p.Consume(names.MustParse("/a/c2"))
		if !ok || e.OutFace != 9 {
			t.Errorf("survivor = (%+v, %v)", e, ok)
		}
	})
}

func TestPITExpireBeforeReturnsEntries(t *testing.T) {
	forEachPIT(t, func(t *testing.T, p *PIT) {
		now := time.Now()
		p.Admit(names.MustParse("/a/old"), PITRecord{Nonce: 1}, now.Add(-time.Hour), now.Add(-time.Second))
		p.Admit(names.MustParse("/a/new"), PITRecord{Nonce: 2}, now, now.Add(time.Hour))

		expired := p.ExpireBefore(now)
		if len(expired) != 1 || !expired[0].Name.Equal(names.MustParse("/a/old")) {
			t.Fatalf("expired = %+v, want the old entry", expired)
		}
		if _, _, exp := p.Stats(); exp != 1 {
			t.Errorf("expired stat = %d, want 1", exp)
		}
	})
}
