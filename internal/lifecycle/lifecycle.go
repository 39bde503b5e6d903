// Package lifecycle is the tag-lifecycle control plane: an issuance
// service that mints, renews, and explicitly revokes TACTIC tags on
// behalf of a provider.
//
// TACTIC's only native revocation mechanism is expiry (T_e): "a revoked
// client simply never receives a fresh tag". That leaves a window — up
// to a full tag lifetime — in which a compromised or de-authorized
// client keeps being served. The lifecycle service closes it: every
// grant it mints is recorded in a persisted append-only ledger keyed by
// the tag's lifecycle identity (core.TagID, the SHA-256 of its signed
// fields), and Revoke moves an ID into a small exact revocation set
// that routers consult before their Bloom filters (see
// core.RevocationSet) once the set is pushed over control TLVs
// (ndn.Control, cmd/tacticissue push).
//
// The in-memory index is sharded 256 ways by the ID's first byte, so
// concurrent issuance and lookup scale to millions of outstanding
// grants (the package benchmarks pin this); the ledger is replayed on
// Open, tolerating a torn final line from an interrupted append.
package lifecycle

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/pki"
)

// Status is a grant's lifecycle state.
type Status uint8

// Grant states.
const (
	// StatusActive: the grant is live (it may still be past T_e —
	// expiry is the tag's own business; the ledger tracks grants).
	StatusActive Status = iota
	// StatusRenewed: a successor grant supersedes this one; the old tag
	// remains honoured until its T_e.
	StatusRenewed
	// StatusRevoked: explicitly revoked; the ID is in the revocation
	// set and routers deny it ahead of T_e.
	StatusRevoked
)

// String returns the status's ledger keyword.
func (s Status) String() string {
	switch s {
	case StatusActive:
		return "active"
	case StatusRenewed:
		return "renewed"
	case StatusRevoked:
		return "revoked"
	}
	return fmt.Sprintf("status_%d", uint8(s))
}

// Record is one grant's ledger state.
type Record struct {
	// ID is the tag's lifecycle identity.
	ID core.TagID
	// ClientKey is the grantee's key locator Pub_u.
	ClientKey names.Name
	// Level, AccessPath, Expiry mirror the minted tag's fields.
	Level      core.AccessLevel
	AccessPath core.AccessPath
	Expiry     time.Time
	// Status is the grant's lifecycle state.
	Status Status
	// Successor is the renewing grant's ID when Status is
	// StatusRenewed.
	Successor core.TagID
}

// Service errors.
var (
	// ErrUnknownTag is returned for operations on an ID the ledger has
	// never issued.
	ErrUnknownTag = errors.New("lifecycle: unknown tag ID")
	// ErrNotActive is returned when renewing or revoking a grant that
	// is not active.
	ErrNotActive = errors.New("lifecycle: grant is not active")
	// ErrLedgerCorrupt is returned when replay hits a malformed line
	// that is not a torn final append.
	ErrLedgerCorrupt = errors.New("lifecycle: corrupt ledger")
)

// grantShards divides the grant index; must be a power of two.
const grantShards = 256

type shard struct {
	mu sync.RWMutex
	m  map[core.TagID]*Record
}

// Service is one provider's issuance authority. Safe for concurrent
// use.
type Service struct {
	signer pki.Signer
	rev    *core.RevocationSet

	shards [grantShards]shard
	active atomic.Int64

	ledgerMu sync.Mutex
	ledger   *os.File
	ledgerW  *bufio.Writer
}

// Open creates a service for signer, replaying (and appending to) the
// ledger at path. An empty path keeps the ledger in memory only.
func Open(path string, signer pki.Signer) (*Service, error) {
	s := &Service{signer: signer, rev: core.NewRevocationSet()}
	for i := range s.shards {
		s.shards[i].m = make(map[core.TagID]*Record)
	}
	if path == "" {
		return s, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lifecycle: open ledger: %w", err)
	}
	goodEnd, err := s.replay(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	// Drop a torn final append (a crash mid-write) so the next append
	// starts on a clean line boundary.
	if err := f.Truncate(goodEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("lifecycle: truncate torn ledger tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("lifecycle: seek ledger: %w", err)
	}
	s.ledger = f
	s.ledgerW = bufio.NewWriter(f)
	return s, nil
}

// Close flushes and closes the ledger, if any.
func (s *Service) Close() error {
	s.ledgerMu.Lock()
	defer s.ledgerMu.Unlock()
	if s.ledger == nil {
		return nil
	}
	err := s.ledgerW.Flush()
	if cerr := s.ledger.Close(); err == nil {
		err = cerr
	}
	s.ledger, s.ledgerW = nil, nil
	return err
}

func (s *Service) shardFor(id core.TagID) *shard { return &s.shards[id[0]] }

// Issue mints and signs a fresh tag for clientKey and records the
// grant. Pass core.AccessPathAny as ap to mint a roaming tag (valid
// from any edge, trading away AP-based location binding).
func (s *Service) Issue(clientKey names.Name, level core.AccessLevel, ap core.AccessPath, expiry time.Time) (*core.Tag, error) {
	tag, err := core.IssueTag(s.signer, clientKey, level, ap, expiry)
	if err != nil {
		return nil, err
	}
	rec := &Record{ID: tag.ID(), ClientKey: clientKey, Level: level, AccessPath: ap, Expiry: expiry, Status: StatusActive}
	if err := s.append(issueLine("issue", rec)); err != nil {
		return nil, err
	}
	s.install(rec)
	return tag, nil
}

// install inserts a record, counting it if active. Re-issuing an
// identical tuple (same ID) overwrites the previous record; the grant
// is one logical thing.
func (s *Service) install(rec *Record) {
	sh := s.shardFor(rec.ID)
	sh.mu.Lock()
	prev, existed := sh.m[rec.ID]
	sh.m[rec.ID] = rec
	sh.mu.Unlock()
	if rec.Status == StatusActive && (!existed || prev.Status != StatusActive) {
		s.active.Add(1)
	}
}

// Renew mints a successor tag for grant id with a new expiry, keeping
// the client, level, and access path. The old grant is marked renewed
// but not revoked: its tag stays honoured until its own T_e.
func (s *Service) Renew(id core.TagID, newExpiry time.Time) (*core.Tag, error) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	rec, ok := sh.m[id]
	sh.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownTag, id)
	}
	if rec.Status != StatusActive {
		return nil, fmt.Errorf("%w: %s is %s", ErrNotActive, id, rec.Status)
	}
	tag, err := core.IssueTag(s.signer, rec.ClientKey, rec.Level, rec.AccessPath, newExpiry)
	if err != nil {
		return nil, err
	}
	succ := &Record{ID: tag.ID(), ClientKey: rec.ClientKey, Level: rec.Level, AccessPath: rec.AccessPath, Expiry: newExpiry, Status: StatusActive}
	if err := s.append(issueLine("renew", succ) + " " + id.String()); err != nil {
		return nil, err
	}
	s.install(succ)
	sh.mu.Lock()
	if cur, ok := sh.m[id]; ok && cur.Status == StatusActive {
		cur.Status = StatusRenewed
		cur.Successor = tag.ID()
		s.active.Add(-1)
	}
	sh.mu.Unlock()
	return tag, nil
}

// Revoke moves grant id into the revocation set; routers deny the tag
// as soon as the set reaches them, without waiting for T_e. Returns the
// revocation set's new version.
func (s *Service) Revoke(id core.TagID) (uint64, error) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	rec, ok := sh.m[id]
	sh.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownTag, id)
	}
	if rec.Status == StatusRevoked {
		return s.rev.Version(), nil // idempotent
	}
	if err := s.append("revoke " + id.String()); err != nil {
		return 0, err
	}
	sh.mu.Lock()
	if rec.Status == StatusActive {
		s.active.Add(-1)
	}
	rec.Status = StatusRevoked
	sh.mu.Unlock()
	return s.rev.Revoke(id), nil
}

// Lookup returns a copy of grant id's record.
func (s *Service) Lookup(id core.TagID) (Record, bool) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	rec, ok := sh.m[id]
	var out Record
	if ok {
		out = *rec
	}
	sh.mu.RUnlock()
	return out, ok
}

// Revocations exposes the service's authoritative revocation set; its
// Snapshot is the payload of a full push to routers.
func (s *Service) Revocations() *core.RevocationSet { return s.rev }

// Outstanding returns the number of active (unrevoked, unsuperseded)
// grants.
func (s *Service) Outstanding() int64 { return s.active.Load() }

// Records calls fn for every grant, in unspecified order, with a copy
// of each record. fn returning false stops the walk.
func (s *Service) Records(fn func(Record) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, rec := range sh.m {
			if !fn(*rec) {
				sh.mu.RUnlock()
				return
			}
		}
		sh.mu.RUnlock()
	}
}

// --- Ledger ------------------------------------------------------------------

// The ledger is line-oriented plain text, one event per line:
//
//	issue <id> <client> <level> <ap> <expiry-unixnano>
//	renew <id> <client> <level> <ap> <expiry-unixnano> <renewed-id>
//	revoke <id>
//
// IDs and access paths are hex. The ledger records grants, not
// signatures: tags are delivered to clients at issue time and the
// authority never needs to reproduce one, so replay rebuilds exactly
// the index and revocation set.

func issueLine(verb string, rec *Record) string {
	return fmt.Sprintf("%s %s %s %d %016x %d",
		verb, rec.ID, rec.ClientKey, rec.Level, uint64(rec.AccessPath), rec.Expiry.UnixNano())
}

// append writes one ledger line; a no-op without a ledger file.
func (s *Service) append(line string) error {
	s.ledgerMu.Lock()
	defer s.ledgerMu.Unlock()
	if s.ledger == nil {
		return nil
	}
	if _, err := s.ledgerW.WriteString(line + "\n"); err != nil {
		return fmt.Errorf("lifecycle: append ledger: %w", err)
	}
	if err := s.ledgerW.Flush(); err != nil {
		return fmt.Errorf("lifecycle: flush ledger: %w", err)
	}
	return nil
}

// replay rebuilds state from the ledger, returning the byte offset of
// the end of the last good line. An unterminated final line is a torn
// append — dropped, not applied — so the next append starts on a clean
// boundary; a malformed interior line is corruption.
func (s *Service) replay(f *os.File) (int64, error) {
	r := bufio.NewReader(f)
	var off int64
	lineNo := 0
	for {
		line, err := r.ReadString('\n')
		if err != nil && line == "" {
			return off, nil // clean EOF
		}
		lineNo++
		if !strings.HasSuffix(line, "\n") {
			return off, nil // torn final append
		}
		if perr := s.applyLine(strings.TrimSuffix(line, "\n")); perr != nil {
			return off, fmt.Errorf("%w: line %d: %v", ErrLedgerCorrupt, lineNo, perr)
		}
		off += int64(len(line))
	}
}

// applyLine replays one ledger event into the index.
func (s *Service) applyLine(line string) error {
	if line == "" {
		return errors.New("empty line")
	}
	fields := strings.Fields(line)
	switch fields[0] {
	case "issue", "renew":
		want := 6
		if fields[0] == "renew" {
			want = 7
		}
		if len(fields) != want {
			return fmt.Errorf("%s line has %d fields, want %d", fields[0], len(fields), want)
		}
		id, err := core.ParseTagID(fields[1])
		if err != nil {
			return err
		}
		client, err := names.Parse(fields[2])
		if err != nil {
			return err
		}
		level, err := strconv.ParseUint(fields[3], 10, 16)
		if err != nil {
			return fmt.Errorf("level: %w", err)
		}
		ap, err := strconv.ParseUint(fields[4], 16, 64)
		if err != nil {
			return fmt.Errorf("access path: %w", err)
		}
		expiry, err := strconv.ParseInt(fields[5], 10, 64)
		if err != nil {
			return fmt.Errorf("expiry: %w", err)
		}
		rec := &Record{
			ID: id, ClientKey: client, Level: core.AccessLevel(level),
			AccessPath: core.AccessPath(ap), Expiry: time.Unix(0, expiry), Status: StatusActive,
		}
		s.install(rec)
		if fields[0] == "renew" {
			oldID, err := core.ParseTagID(fields[6])
			if err != nil {
				return err
			}
			sh := s.shardFor(oldID)
			sh.mu.Lock()
			if old, ok := sh.m[oldID]; ok && old.Status == StatusActive {
				old.Status = StatusRenewed
				old.Successor = id
				s.active.Add(-1)
			}
			sh.mu.Unlock()
		}
		return nil
	case "revoke":
		if len(fields) != 2 {
			return fmt.Errorf("revoke line has %d fields, want 2", len(fields))
		}
		id, err := core.ParseTagID(fields[1])
		if err != nil {
			return err
		}
		sh := s.shardFor(id)
		sh.mu.Lock()
		if rec, ok := sh.m[id]; ok {
			if rec.Status == StatusActive {
				s.active.Add(-1)
			}
			rec.Status = StatusRevoked
		}
		sh.mu.Unlock()
		s.rev.Revoke(id)
		return nil
	}
	return fmt.Errorf("unknown verb %q", fields[0])
}
