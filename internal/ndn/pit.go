package ndn

import (
	"sync"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
)

// PITRecord is one aggregated requester: the paper extends the classic
// face-set aggregation with the full 3-tuple <T_u, F, InFace_u>
// (Protocol 4 line 4) so the router can validate each aggregated tag
// when the content arrives. "The addition of the tag adds an overhead to
// the PIT entry but it is of the order of a couple hundred bytes" (§5.C).
type PITRecord struct {
	// Tag is T_u; nil for tagless requests.
	Tag *core.Tag
	// Flag is the F carried by the aggregated Interest.
	Flag float64
	// InFace is the face the Interest arrived on; the Data for this
	// record is forwarded there (reverse-path forwarding).
	InFace FaceID
	// Nonce is the Interest's nonce, for duplicate suppression.
	Nonce uint64
	// Arrived is when the Interest reached this router, for latency
	// accounting.
	Arrived time.Time
}

// PITEntry is the pending-Interest state for one content name: the
// primary record (the Interest actually forwarded upstream) plus every
// aggregated record.
type PITEntry struct {
	// Name is the content name.
	Name names.Name
	// Records lists the requesters; Records[0] is the primary (the
	// Interest that created the entry and was forwarded).
	Records []PITRecord
	// first backs Records until a second requester aggregates: most
	// entries live and die with one record, so it rides in the entry's own
	// allocation.
	first [1]PITRecord
	// Expires is the entry's lifetime deadline; expired entries free
	// their requesters' windows (the paper's 1 s request expiry, §8.B).
	Expires time.Time
	// OutFace is the face the primary Interest was forwarded to
	// (FaceNone until a forwarder records it). Entries whose upstream
	// face dies are flushed (DropByOutFace) so retransmissions create a
	// fresh entry and are re-forwarded instead of aggregating onto a
	// request that can never be satisfied.
	OutFace FaceID
}

// HasNonce reports whether a record with the nonce is already
// aggregated (loop/duplicate suppression).
func (e *PITEntry) HasNonce(nonce uint64) bool {
	for _, r := range e.Records {
		if r.Nonce == nonce {
			return true
		}
	}
	return false
}

// PIT is a Pending Interest Table. It is safe for concurrent use: every
// method holds the table's one lock, as the FIB's do, so all operations
// serialise. Entries returned by Consume, ExpireBefore and DropByOutFace
// are removed from the table before being returned, so the caller owns
// them exclusively; ConsumeFrom copies the records out and keeps the
// entry.
type PIT struct {
	mu      sync.Mutex
	entries map[string]*PITEntry
	// free holds the entries ConsumeFrom emptied, for the next Admit: they
	// never left the table, so nobody else holds one. Entries handed to a
	// caller (Consume, DropByOutFace, ExpireBefore) are the caller's and do
	// not come back.
	free       []*PITEntry
	aggregated uint64
	created    uint64
	expired    uint64
}

// NewPIT creates an empty PIT.
func NewPIT() *PIT {
	return &PIT{entries: make(map[string]*PITEntry)}
}

// NewShardedPIT is NewPIT, under the name it had while the live plane
// split the table into locked shards.
func NewShardedPIT() *PIT { return NewPIT() }

// AdmitOutcome classifies what a PIT did with one Interest.
type AdmitOutcome int

// Admit outcomes.
const (
	// PITNew: a fresh entry was created; the caller resolves a route,
	// records it with SetOutFace and forwards the Interest upstream
	// (Protocol 4 lines 1-2) — the node core; a driver that then cannot
	// send may consume the entry again.
	PITNew AdmitOutcome = iota
	// PITAggregated: the Interest joined an existing pending entry
	// (Protocol 4 lines 3-5). The returned out-face (FaceNone while the
	// primary forward is still in flight, or never recorded) lets the
	// caller re-send retransmissions upstream, as the primary's Interest
	// (Primary).
	PITAggregated
	// PITDuplicate: the entry already holds this nonce; drop.
	PITDuplicate
)

// pitFreeMax bounds how many emptied entries a PIT keeps for reuse
// (about 40 KB), so a burst of pending Interests does not stay allocated
// after it is answered.
const pitFreeMax = 256

// Admit records one Interest — the one PIT admission rule both planes
// run: it aggregates onto a live entry (extending its lifetime and
// reporting the entry's out-face for retransmission handling), reports
// a duplicate nonce, or — replacing any expired leftover — creates a
// fresh entry.
func (p *PIT) Admit(name names.Name, rec PITRecord, now, expires time.Time) (AdmitOutcome, FaceID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := name.Key()
	if e, ok := p.entries[k]; ok && e.Expires.After(now) {
		if e.HasNonce(rec.Nonce) {
			return PITDuplicate, FaceNone
		}
		e.Records = append(e.Records, rec)
		if expires.After(e.Expires) {
			e.Expires = expires
		}
		p.aggregated++
		return PITAggregated, e.OutFace
	}
	// No entry, or an expired leftover to replace.
	var e *PITEntry
	if n := len(p.free); n > 0 {
		e, p.free = p.free[n-1], p.free[:n-1]
	} else {
		e = new(PITEntry)
	}
	*e = PITEntry{Name: name, first: [1]PITRecord{rec}, Expires: expires, OutFace: FaceNone}
	e.Records = e.first[:]
	p.entries[k] = e
	p.created++
	return PITNew, FaceNone
}

// SetOutFace records the upstream face the primary Interest of name was
// forwarded to, reporting whether the entry still exists.
func (p *PIT) SetOutFace(name names.Name, face FaceID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.entries[name.Key()]
	if ok {
		e.OutFace = face
	}
	return ok
}

// Primary returns the primary record of name's pending entry: the
// question its forward asked upstream.
func (p *PIT) Primary(name names.Name) (PITRecord, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.entries[name.Key()]
	if !ok {
		return PITRecord{}, false
	}
	return e.Records[0], true
}

// DropByOutFace removes and returns every entry whose primary Interest
// was forwarded to face — called when that face dies, so the pending
// requests can be accounted (and, on retransmission, re-forwarded via a
// fresh entry).
func (p *PIT) DropByOutFace(face FaceID) []*PITEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []*PITEntry
	for k, e := range p.entries {
		if e.OutFace == face {
			out = append(out, e)
			delete(p.entries, k)
		}
	}
	return out
}

// Consume removes and returns the entry for name — the router is about
// to satisfy it with arriving Data.
func (p *PIT) Consume(name names.Name) (*PITEntry, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := name.Key()
	e, ok := p.entries[k]
	if ok {
		delete(p.entries, k)
	}
	return e, ok
}

// ConsumeFrom is Consume for Data arriving on face: the entry goes only
// when its primary Interest was forwarded there, so Data from any other
// face neither satisfies nor kills a pending request. The requesters are
// appended to recs (Records[0], the primary, first) and the emptied entry
// stays inside the table for the next Admit, so the Data path has nothing
// to hand back and no way to read an entry that is in use again.
func (p *PIT) ConsumeFrom(name names.Name, face FaceID, recs []PITRecord) ([]PITRecord, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := name.Key()
	e, ok := p.entries[k]
	if !ok || e.OutFace != face {
		return recs, false
	}
	delete(p.entries, k)
	recs = append(recs, e.Records...)
	if len(p.free) < pitFreeMax {
		*e = PITEntry{} // let go of the name and the tags
		p.free = append(p.free, e)
	}
	return recs, true
}

// ExpireBefore removes entries whose lifetime ended at or before now and
// returns them so callers can account for the timed-out requesters.
func (p *PIT) ExpireBefore(now time.Time) []*PITEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []*PITEntry
	for k, e := range p.entries {
		if !e.Expires.After(now) {
			out = append(out, e)
			delete(p.entries, k)
			p.expired++
		}
	}
	return out
}

// Len returns the number of pending entries.
func (p *PIT) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}

// Stats returns entries created, Interests aggregated into existing
// entries, and entries expired.
func (p *PIT) Stats() (created, aggregated, expired uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.created, p.aggregated, p.expired
}
