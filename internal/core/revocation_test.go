package core

import (
	"testing"
)

func TestTagIDIdentity(t *testing.T) {
	prov := newTestSigner(t, 61, "/prov0/KEY/1")
	a := issueTestTag(t, prov, 2, 0, testTime(100))
	// Re-signing the same tuple yields a different signature (ECDSA is
	// randomised) but must keep the same lifecycle identity.
	b := issueTestTag(t, prov, 2, 0, testTime(100))
	if a.ID() != b.ID() {
		t.Fatalf("re-signed tag changed ID: %s vs %s", a.ID(), b.ID())
	}
	c := issueTestTag(t, prov, 3, 0, testTime(100))
	if a.ID() == c.ID() {
		t.Fatal("tags with different levels share an ID")
	}
	dec, err := DecodeTag(a.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.ID() != a.ID() {
		t.Fatal("decode changed the tag ID")
	}
	parsed, err := ParseTagID(a.ID().String())
	if err != nil {
		t.Fatal(err)
	}
	if parsed != a.ID() {
		t.Fatal("ParseTagID(String()) round trip failed")
	}
	if _, err := ParseTagID("zz"); err == nil {
		t.Error("parsed malformed hex")
	}
	if _, err := ParseTagID("abcd"); err == nil {
		t.Error("parsed short ID")
	}
}

// TestRevocationSetVersioning: every push that advances the version
// replaces the whole set, with or without IDs; a push that does not
// advance it changes nothing.
func TestRevocationSetVersioning(t *testing.T) {
	s := NewRevocationSet()
	id1, id2, id3 := TagID{1}, TagID{2}, TagID{3}
	if s.Contains(id1) || s.Version() != 0 || s.Len() != 0 {
		t.Fatal("fresh set not empty at version 0")
	}
	if !s.Apply(1, []TagID{id1, id2}) {
		t.Fatal("advancing push rejected")
	}
	if !s.Contains(id1) || !s.Contains(id2) || s.Contains(id3) || s.Version() != 1 || s.Len() != 2 {
		t.Fatalf("push wrong: len=%d version=%d", s.Len(), s.Version())
	}
	// Stale and duplicate pushes are ignored.
	if s.Apply(1, []TagID{id3}) || s.Apply(0, nil) {
		t.Fatal("stale push applied")
	}
	if s.Contains(id3) || s.Len() != 2 {
		t.Fatal("stale push mutated the set")
	}
	// A push replaces the set: what it does not name is lifted.
	if !s.Apply(5, []TagID{id3}) {
		t.Fatal("advancing push rejected")
	}
	if s.Contains(id1) || s.Contains(id2) || !s.Contains(id3) || s.Len() != 1 || s.Version() != 5 {
		t.Fatal("push did not replace the set")
	}
	if !s.Apply(6, nil) || s.Len() != 0 || s.Contains(id3) {
		t.Fatal("an empty push did not empty the set")
	}
}
