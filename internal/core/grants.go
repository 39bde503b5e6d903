package core

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/tactic-icn/tactic/internal/names"
)

// A provider records every tag it mints as a grant, keyed by the tag's
// lifecycle identity (TagID): at registration (Register) and on the
// operator's side (Issue, Renew). Revoke marks a grant revoked, and that
// status is the one record of the revocation: Revocations lists the
// revoked grants whose T_e has not passed, the whole set routers consult
// before their Bloom filters once it is pushed to them over control
// frames (ndn.Control, cmd/tacticissue push). That closes the window
// expiry alone leaves open: TACTIC's native revocation is "a revoked
// client simply never receives a fresh tag", so a de-authorised client
// keeps being served until its tag's T_e. Past T_e the tag is denied
// by its expiry, so an expired revoked grant needs no entry.
//
// Grants live in one map under the provider's lock. Registration can be
// triggered from a remote face, so Register forgets grants that expired
// before its now in an amortised sweep, revoked ones included, and an
// origin's memory stays bounded by the grants still live. An optional
// append-only ledger (OpenLedger) keeps every line, swept or not.

// GrantStatus is a grant's lifecycle state.
type GrantStatus uint8

// Grant states.
const (
	// GrantActive: the grant is live (it may still be past T_e — expiry
	// is the tag's own business).
	GrantActive GrantStatus = iota
	// GrantRenewed: a successor grant supersedes this one; the old tag
	// stays honoured until its T_e.
	GrantRenewed
	// GrantRevoked: explicitly revoked; until T_e the ID is in every
	// revocation push, and routers deny it ahead of T_e.
	GrantRevoked
)

// String returns the status's ledger keyword.
func (s GrantStatus) String() string {
	switch s {
	case GrantActive:
		return "active"
	case GrantRenewed:
		return "renewed"
	case GrantRevoked:
		return "revoked"
	}
	return fmt.Sprintf("status_%d", uint8(s))
}

// Grant is one minted tag's record.
type Grant struct {
	// ID is the tag's lifecycle identity.
	ID TagID
	// ClientKey is the grantee's key locator Pub_u.
	ClientKey names.Name
	// Level, AccessPath, Expiry mirror the minted tag's fields.
	Level      AccessLevel
	AccessPath AccessPath
	Expiry     time.Time
	// Status is the grant's lifecycle state.
	Status GrantStatus
	// Successor is the renewing grant's ID once the grant was renewed.
	Successor TagID
}

// Grant errors.
var (
	// ErrUnknownTag is returned for an ID the provider holds no grant
	// for: never minted, or expired and swept by Register.
	ErrUnknownTag = errors.New("core: unknown grant")
	// ErrNotActive is returned when renewing a grant that was already
	// renewed or revoked. Revoke takes an active or a renewed grant, and
	// revoking a revoked one is a no-op.
	ErrNotActive = errors.New("core: grant is not active")
	// ErrRevokedGrant is returned when minting a tuple whose ID is
	// already revoked: the grant stays revoked.
	ErrRevokedGrant = errors.New("core: grant is revoked")
	// ErrLedgerCorrupt is returned when replay hits a malformed line
	// that is not a torn final append.
	ErrLedgerCorrupt = errors.New("core: corrupt grant ledger")
)

// minSweep is the grant count below which Register does not sweep.
const minSweep = 64

// Issue mints and signs a fresh tag for clientKey outside registration
// and records the grant. Pass AccessPathAny as ap to mint a roaming tag
// (valid from any edge, trading away AP-based location binding).
func (p *Provider) Issue(clientKey names.Name, level AccessLevel, ap AccessPath, expiry time.Time) (*Tag, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.mint(clientKey, level, ap, expiry, nil)
}

// Renew mints a successor tag for grant id with a new expiry, keeping
// the client, level, and access path. The old grant is marked renewed
// but not revoked: its tag stays honoured until its own T_e.
func (p *Provider) Renew(id TagID, newExpiry time.Time) (*Tag, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	g, ok := p.grants[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownTag, id)
	}
	if g.Status != GrantActive {
		return nil, fmt.Errorf("%w: %s is %s", ErrNotActive, id, g.Status)
	}
	return p.mint(g.ClientKey, g.Level, g.AccessPath, newExpiry, g)
}

// Revoke marks grant id revoked; routers deny the tag as soon as a push
// of Revocations reaches them, without waiting for T_e. It returns the
// revocation version, which advances once per grant newly revoked.
func (p *Provider) Revoke(id TagID) (uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	g, ok := p.grants[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownTag, id)
	}
	if g.Status == GrantRevoked {
		return p.revVersion, nil
	}
	if p.ledger != nil {
		if err := p.append("revoke " + id.String()); err != nil {
			return 0, err
		}
	}
	p.setStatus(g, GrantRevoked)
	p.revVersion++
	return p.revVersion, nil
}

// mint signs a tag and records its grant, superseding renewed when it is
// not nil; p.mu is held, so a grant's check, mint and mark are one step.
// A revoked ID stays revoked: re-minting its tuple is refused before
// anything is signed or written.
func (p *Provider) mint(clientKey names.Name, level AccessLevel, ap AccessPath, expiry time.Time, renewed *Grant) (*Tag, error) {
	tuple := Tag{ProviderKey: p.signer.Locator(), Level: level, ClientKey: clientKey, AccessPath: ap, Expiry: expiry}
	if id := tuple.ID(); p.revoked(id) {
		return nil, fmt.Errorf("%w: %s", ErrRevokedGrant, id)
	}
	tag, err := IssueTag(p.signer, clientKey, level, ap, expiry)
	if err != nil {
		return nil, err
	}
	g := &Grant{ID: tag.ID(), ClientKey: clientKey, Level: level, AccessPath: ap, Expiry: expiry}
	if p.ledger != nil {
		line := g.line("issue")
		if renewed != nil {
			line = g.line("renew") + " " + renewed.ID.String()
		}
		if err := p.append(line); err != nil {
			return nil, err
		}
	}
	p.install(g, renewed)
	return tag, nil
}

// install records g, superseding renewed when it is active. Re-minting
// an identical tuple (same ID, as a renewal to the same expiry is)
// replaces the previous record: the grant is one logical thing. A
// revoked ID stays revoked: mint refuses one, so only replaying a ledger
// that re-issued a revoked tuple gets here with it.
func (p *Provider) install(g *Grant, renewed *Grant) {
	if p.revoked(g.ID) {
		g.Status = GrantRevoked
	} else if prev, ok := p.grants[g.ID]; !ok || prev.Status != GrantActive {
		p.active++
	}
	p.grants[g.ID] = g
	if renewed != nil && renewed.ID != g.ID && renewed.Status == GrantActive {
		p.setStatus(renewed, GrantRenewed)
		renewed.Successor = g.ID
	}
}

// revoked reports whether the provider holds id as a revoked grant.
func (p *Provider) revoked(id TagID) bool {
	g, ok := p.grants[id]
	return ok && g.Status == GrantRevoked
}

// setStatus moves an unrevoked grant to status, keeping the active count.
func (p *Provider) setStatus(g *Grant, status GrantStatus) {
	if g.Status == GrantActive {
		p.active--
	}
	g.Status = status
}

// sweep forgets the grants that expired before now and schedules the next
// sweep once the map has grown by half again, so the walk costs a
// constant per registration and the map holds at most about 1.5 times
// the grants live at the last sweep.
func (p *Provider) sweep(now time.Time) {
	for id, g := range p.grants {
		if g.Expiry.Before(now) {
			if g.Status == GrantActive {
				p.active--
			}
			delete(p.grants, id)
		}
	}
	p.sweepAt = max(minSweep, len(p.grants)+len(p.grants)/2)
}

// Lookup returns a copy of grant id's record.
func (p *Provider) Lookup(id TagID) (Grant, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	g, ok := p.grants[id]
	if !ok {
		return Grant{}, false
	}
	return *g, true
}

// Records returns a copy of every grant, in unspecified order.
func (p *Provider) Records() []Grant {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Grant, 0, len(p.grants))
	for _, g := range p.grants {
		out = append(out, *g)
	}
	return out
}

// Outstanding returns the number of active (unrevoked, unsuperseded)
// grants.
func (p *Provider) Outstanding() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.active
}

// Revocations returns the revocation version and the IDs of the revoked
// grants whose T_e is not before now, in unspecified order: the payload
// of a push, which replaces a router's whole set.
func (p *Provider) Revocations(now time.Time) (uint64, []TagID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var ids []TagID
	for id, g := range p.grants {
		if g.Status == GrantRevoked && !g.Expiry.Before(now) {
			ids = append(ids, id)
		}
	}
	return p.revVersion, ids
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
// provider never needs to reproduce one, so replay rebuilds exactly the
// grants and the revocation version: every revoke line advances it once,
// as the Revoke that wrote the line did.

// OpenLedger replays the ledger at path into the provider and appends
// every later grant and revocation to it. A torn final line (a crash
// mid-append) is dropped and cut off the file; a malformed interior line
// is ErrLedgerCorrupt. Call it before minting, at most once.
func (p *Provider) OpenLedger(path string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ledger != nil {
		return errors.New("core: ledger already open")
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("core: open ledger: %w", err)
	}
	goodEnd, err := p.replay(f)
	if err == nil {
		err = f.Truncate(goodEnd)
	}
	if err == nil {
		_, err = f.Seek(0, io.SeekEnd)
	}
	if err != nil {
		f.Close()
		return err
	}
	p.ledger, p.ledgerW = f, bufio.NewWriter(f)
	return nil
}

// Close flushes and closes the ledger, if one is open.
func (p *Provider) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ledger == nil {
		return nil
	}
	err := p.ledgerW.Flush()
	if cerr := p.ledger.Close(); err == nil {
		err = cerr
	}
	p.ledger, p.ledgerW = nil, nil
	return err
}

func (g *Grant) line(verb string) string {
	return fmt.Sprintf("%s %s %s %d %016x %d",
		verb, g.ID, g.ClientKey, g.Level, uint64(g.AccessPath), g.Expiry.UnixNano())
}

// append writes one ledger line. Callers check that a ledger is open
// before they build the line, so a ledger-less provider formats none.
func (p *Provider) append(line string) error {
	if _, err := p.ledgerW.WriteString(line + "\n"); err != nil {
		return fmt.Errorf("core: append ledger: %w", err)
	}
	if err := p.ledgerW.Flush(); err != nil {
		return fmt.Errorf("core: flush ledger: %w", err)
	}
	return nil
}

// replay applies the ledger's lines and returns the byte offset of the
// end of the last complete one.
func (p *Provider) replay(f *os.File) (int64, error) {
	r := bufio.NewReader(f)
	var off int64
	for lineNo := 1; ; lineNo++ {
		line, err := r.ReadString('\n')
		if !strings.HasSuffix(line, "\n") {
			if err == nil || err == io.EOF {
				return off, nil // clean end, or a torn final append
			}
			return off, fmt.Errorf("core: read ledger: %w", err)
		}
		if err := p.applyLine(strings.TrimSuffix(line, "\n")); err != nil {
			return off, fmt.Errorf("%w: line %d: %v", ErrLedgerCorrupt, lineNo, err)
		}
		off += int64(len(line))
	}
}

// applyLine replays one ledger event.
func (p *Provider) applyLine(line string) error {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return errors.New("empty line")
	}
	if fields[0] == "revoke" {
		if len(fields) != 2 {
			return fmt.Errorf("revoke line has %d fields, want 2", len(fields))
		}
		id, err := ParseTagID(fields[1])
		if err != nil {
			return err
		}
		if g, ok := p.grants[id]; ok {
			p.setStatus(g, GrantRevoked)
		}
		p.revVersion++
		return nil
	}
	want := map[string]int{"issue": 6, "renew": 7}[fields[0]]
	if want == 0 {
		return fmt.Errorf("unknown verb %q", fields[0])
	}
	if len(fields) != want {
		return fmt.Errorf("%s line has %d fields, want %d", fields[0], len(fields), want)
	}
	id, err := ParseTagID(fields[1])
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
	var renewed *Grant
	if fields[0] == "renew" {
		oldID, err := ParseTagID(fields[6])
		if err != nil {
			return err
		}
		renewed = p.grants[oldID]
	}
	p.install(&Grant{ID: id, ClientKey: client, Level: AccessLevel(level),
		AccessPath: AccessPath(ap), Expiry: time.Unix(0, expiry)}, renewed)
	return nil
}
