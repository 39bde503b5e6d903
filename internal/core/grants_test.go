package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/names"
)

func TestIssueRenewRevoke(t *testing.T) {
	s, _ := newTestProvider(t, 1, time.Hour)
	expiry := time.Unix(5000, 0)
	tag, err := s.Issue(names.MustParse("/u/alice/KEY/1"), 2, AccessPathOf("ap0"), expiry)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := s.Lookup(tag.ID())
	if !ok || rec.Status != GrantActive || rec.Level != 2 || !rec.Expiry.Equal(expiry) {
		t.Fatalf("issued record = %+v ok=%v", rec, ok)
	}
	if s.Outstanding() != 1 {
		t.Fatalf("outstanding = %d", s.Outstanding())
	}
	// Renewing to the same expiry re-signs the same grant: nothing is
	// superseded.
	if same, err := s.Renew(tag.ID(), expiry); err != nil || same.ID() != tag.ID() {
		t.Fatalf("renewal to the same expiry = %v, %v", same, err)
	}
	if rec, _ := s.Lookup(tag.ID()); rec.Status != GrantActive || s.Outstanding() != 1 {
		t.Fatalf("after renewing to the same expiry: %+v, outstanding %d", rec, s.Outstanding())
	}

	// Renew: successor keeps the tuple, old grant is superseded but not
	// revoked.
	tag2, err := s.Renew(tag.ID(), time.Unix(9000, 0))
	if err != nil {
		t.Fatal(err)
	}
	if tag2.ClientKey.String() != tag.ClientKey.String() || tag2.Level != tag.Level || tag2.AccessPath != tag.AccessPath {
		t.Fatal("renewal changed the grant tuple")
	}
	old, _ := s.Lookup(tag.ID())
	if old.Status != GrantRenewed || old.Successor != tag2.ID() {
		t.Fatalf("old record = %+v", old)
	}
	if s.Outstanding() != 1 {
		t.Fatalf("outstanding after renew = %d", s.Outstanding())
	}
	if s.Revocations().Contains(tag.ID()) {
		t.Fatal("renewal revoked the old tag")
	}
	if _, err := s.Renew(tag.ID(), time.Unix(9999, 0)); !errors.Is(err, ErrNotActive) {
		t.Fatalf("renewing superseded grant: %v", err)
	}

	// Revoke the successor.
	v, err := s.Revoke(tag2.ID())
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 || !s.Revocations().Contains(tag2.ID()) {
		t.Fatalf("revocation set version=%d contains=%v", v, s.Revocations().Contains(tag2.ID()))
	}
	if rec, _ := s.Lookup(tag2.ID()); rec.Status != GrantRevoked {
		t.Fatalf("revoked record = %+v", rec)
	}
	if s.Outstanding() != 0 {
		t.Fatalf("outstanding after revoke = %d", s.Outstanding())
	}
	// Idempotent.
	if v2, err := s.Revoke(tag2.ID()); err != nil || v2 != v {
		t.Fatalf("re-revoke = %d, %v", v2, err)
	}
	if _, err := s.Revoke(TagID{0xff}); !errors.Is(err, ErrUnknownTag) {
		t.Fatalf("revoking unknown ID: %v", err)
	}
}

// TestRegisteredGrantRevocable: a tag minted at registration is a grant
// like an operator-issued one, so it can be looked up and revoked by ID.
func TestRegisteredGrantRevocable(t *testing.T) {
	p, _ := newTestProvider(t, 12, time.Minute)
	client := newTestClient(t, 13, "/u/alice/KEY/1")
	p.Enroll(client.KeyLocator(), clientPublic(t, client, 13), 2)
	req, err := client.NewRegistrationRequest(AccessPathOf("e0"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := p.Register(req, testTime(100))
	if err != nil {
		t.Fatal(err)
	}
	id := resp.Tag.ID()
	if g, ok := p.Lookup(id); !ok || g.Status != GrantActive || g.Level != 2 || !g.Expiry.Equal(resp.Tag.Expiry) {
		t.Fatalf("registration grant = %+v ok=%v", g, ok)
	}
	if v, err := p.Revoke(id); err != nil || v != 1 || !p.Revocations().Contains(id) {
		t.Fatalf("revoking the registration grant: v%d %v", v, err)
	}
}

func TestLedgerReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger")
	s, _ := newTestProvider(t, 2, time.Hour)
	if err := s.OpenLedger(path); err != nil {
		t.Fatal(err)
	}
	tagA, err := s.Issue(names.MustParse("/u/a/KEY/1"), 1, 7, time.Unix(100, 0))
	if err != nil {
		t.Fatal(err)
	}
	tagB, err := s.Issue(names.MustParse("/u/b/KEY/1"), 2, 9, time.Unix(200, 0))
	if err != nil {
		t.Fatal(err)
	}
	tagA2, err := s.Renew(tagA.ID(), time.Unix(300, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Revoke(tagB.ID()); err != nil {
		t.Fatal(err)
	}
	if err := s.OpenLedger(path); err == nil {
		t.Error("a second ledger was opened")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the whole grant state comes back.
	s2, _ := newTestProvider(t, 2, time.Hour)
	if err := s2.OpenLedger(path); err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Outstanding() != 1 {
		t.Fatalf("replayed outstanding = %d", s2.Outstanding())
	}
	if rec, ok := s2.Lookup(tagA.ID()); !ok || rec.Status != GrantRenewed || rec.Successor != tagA2.ID() {
		t.Fatalf("replayed A = %+v ok=%v", rec, ok)
	}
	if rec, ok := s2.Lookup(tagA2.ID()); !ok || rec.Status != GrantActive {
		t.Fatalf("replayed A2 = %+v ok=%v", rec, ok)
	}
	if rec, ok := s2.Lookup(tagB.ID()); !ok || rec.Status != GrantRevoked {
		t.Fatalf("replayed B = %+v ok=%v", rec, ok)
	}
	if !s2.Revocations().Contains(tagB.ID()) {
		t.Fatal("replay lost the revocation")
	}
	// Replay preserves identity: renewing the same record mints a tag
	// whose ID the ledger already knows.
	if _, err := s2.Renew(tagA2.ID(), time.Unix(400, 0)); err != nil {
		t.Fatal(err)
	}
}

// TestReissueRevokedStaysRevoked: issuing a revoked tuple again (the
// same TagID) is refused before anything is signed or written, and a
// ledger that re-issued one after its revocation replays it revoked.
func TestReissueRevokedStaysRevoked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger")
	s, _ := newTestProvider(t, 3, time.Hour)
	if err := s.OpenLedger(path); err != nil {
		t.Fatal(err)
	}
	client, expiry := names.MustParse("/u/mallory/KEY/1"), time.Unix(5000, 0)
	tag, err := s.Issue(client, 2, 7, expiry)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Revoke(tag.ID()); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := s.Issue(client, 2, 7, expiry); !errors.Is(err, ErrRevokedGrant) || again != nil {
		t.Fatalf("re-issuing a revoked tuple = %v, %v; want ErrRevokedGrant", again, err)
	}
	rec, _ := s.Lookup(tag.ID())
	if rec.Status != GrantRevoked || s.Outstanding() != 0 || !s.Revocations().Contains(tag.ID()) {
		t.Fatalf("after a refused re-issue: status=%s outstanding=%d revokedInSet=%v",
			rec.Status, s.Outstanding(), s.Revocations().Contains(tag.ID()))
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
		t.Errorf("the refused re-issue wrote %q to the ledger", after[len(before):])
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A ledger that re-issued the tuple after revoking it replays revoked.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(rec.line("issue") + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s2, _ := newTestProvider(t, 3, time.Hour)
	if err := s2.OpenLedger(path); err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec, _ := s2.Lookup(tag.ID()); rec.Status != GrantRevoked || s2.Outstanding() != 0 {
		t.Fatalf("replayed re-issue: status=%s outstanding=%d", rec.Status, s2.Outstanding())
	}
}

func TestLedgerTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ledger")
	s, _ := newTestProvider(t, 3, time.Hour)
	if err := s.OpenLedger(path); err != nil {
		t.Fatal(err)
	}
	tag, err := s.Issue(names.MustParse("/u/a/KEY/1"), 1, 7, time.Unix(100, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: half a revoke line, no newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("revoke deadbeef"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, _ := newTestProvider(t, 3, time.Hour)
	if err := s2.OpenLedger(path); err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if rec, ok := s2.Lookup(tag.ID()); !ok || rec.Status != GrantActive {
		t.Fatalf("good prefix lost: %+v ok=%v", rec, ok)
	}
	// The tail was truncated: appending works and a re-open still
	// parses cleanly.
	if _, err := s2.Revoke(tag.ID()); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, _ := newTestProvider(t, 3, time.Hour)
	if err := s3.OpenLedger(path); err != nil {
		t.Fatalf("ledger after torn-tail repair rejected: %v", err)
	}
	defer s3.Close()
	if rec, _ := s3.Lookup(tag.ID()); rec.Status != GrantRevoked {
		t.Fatalf("post-repair record = %+v", rec)
	}

	// Interior corruption is an error, not silently skipped.
	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(bad, []byte("garbage line\nrevoke deadbeef\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s4, _ := newTestProvider(t, 3, time.Hour)
	if err := s4.OpenLedger(bad); !errors.Is(err, ErrLedgerCorrupt) {
		t.Fatalf("interior corruption: %v", err)
	}
}

// TestConcurrentIssueRevoke exercises the grant store under concurrent
// mixed traffic (run with -race).
func TestConcurrentIssueRevoke(t *testing.T) {
	s, _ := newTestProvider(t, 4, time.Hour)
	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tag, err := s.Issue(names.MustNew("u", "KEY"), AccessLevel(i%5), AccessPath(w), time.Unix(int64(1000+i), 0))
				if err != nil {
					t.Error(err)
					return
				}
				if _, ok := s.Lookup(tag.ID()); !ok {
					t.Errorf("issued tag not found")
					return
				}
				if i%3 == 0 {
					if _, err := s.Revoke(tag.ID()); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// Identical tuples collapse to one grant (same TagID), so assert on
	// the set sizes rather than raw counts.
	if n := len(s.Records()); n == 0 || s.Outstanding() <= 0 || s.Revocations().Len() == 0 {
		t.Fatalf("records=%d outstanding=%d revoked=%d", n, s.Outstanding(), s.Revocations().Len())
	}
}

// TestRenewRevokeRace runs two Renews and a Revoke of one grant at once,
// 500 times. Whatever order they land in, at most one successor is
// minted, and a minted successor is the grant's recorded Successor: a
// renewal never leaves a live tag the provider does not know superseded
// the grant, even when the grant is revoked meanwhile.
func TestRenewRevokeRace(t *testing.T) {
	s, _ := newTestProvider(t, 5, time.Hour)
	const rounds = 500
	bad := 0
	for r := 0; r < rounds; r++ {
		tag, err := s.Issue(names.MustParse("/u/a/KEY/1"), 1, AccessPath(r), time.Unix(1000, 0))
		if err != nil {
			t.Fatal(err)
		}
		id := tag.ID()
		var (
			wg     sync.WaitGroup
			mu     sync.Mutex
			minted []TagID
		)
		for k := 0; k < 2; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				succ, err := s.Renew(id, time.Unix(int64(2000+k), 0))
				if err == nil {
					mu.Lock()
					minted = append(minted, succ.ID())
					mu.Unlock()
				} else if !errors.Is(err, ErrNotActive) {
					t.Error(err)
				}
			}(k)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Revoke(id); err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
		g, _ := s.Lookup(id)
		if g.Status != GrantRevoked || len(minted) > 1 || (len(minted) == 1 && g.Successor != minted[0]) {
			bad++
		}
	}
	if bad != 0 {
		t.Errorf("%d of %d rounds left the grant inconsistent with what Renew minted", bad, rounds)
	}
}

// TestRegisterForgetsExpiredGrants registers one tag a second for five
// tag lifetimes. The grants Register keeps never exceed twice the ones
// still live, and the ones it forgot were all expired.
func TestRegisterForgetsExpiredGrants(t *testing.T) {
	const ttl = 100 * time.Second
	p, _ := newTestProvider(t, 6, ttl)
	client := newTestClient(t, 7, "/u/alice/KEY/1")
	p.Enroll(client.KeyLocator(), clientPublic(t, client, 7), 1)
	start := testTime(1000)
	for sec := 0; sec < 5*int(ttl/time.Second); sec++ {
		now := start.Add(time.Duration(sec) * time.Second)
		req, err := client.NewRegistrationRequest(AccessPathOf("e0"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Register(req, now); err != nil {
			t.Fatal(err)
		}
		grants := p.Records()
		records, live := len(grants), 0
		for _, g := range grants {
			if !g.Expiry.Before(now) {
				live++
			}
		}
		if sec >= int(ttl/time.Second) && records > 2*live {
			t.Fatalf("at +%ds the provider holds %d grants, %d of them live", sec, records, live)
		}
		if live != min(sec+1, int(ttl/time.Second)+1) {
			t.Fatalf("at +%ds %d live grants, want %d: a live grant was forgotten", sec, live, min(sec+1, int(ttl/time.Second)+1))
		}
		if out := p.Outstanding(); out != records {
			t.Fatalf("at +%ds Outstanding() = %d with %d active grants held", sec, out, records)
		}
	}
}

// TestLedgerFormatPin replays a ledger committed under testdata, written
// by the grant ledger's first implementation: issue, renew and revoke lines, a roaming grant,
// a revoked renewed grant, and a torn final revoke line. Every record
// must come back as written, the torn line must be dropped and cut off
// the file, and the revocation set must hold exactly the two revoked IDs
// at version 2.
func TestLedgerFormatPin(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "grants.ledger"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "grants.ledger")
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	s, _ := newTestProvider(t, 41, time.Hour)
	if err := s.OpenLedger(path); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const (
		a  = "0399ab51fb90fe85e09cd4bc3236a12b3e3a52f3d9564cb02e404440171f314b"
		b  = "590b629ec328a60f307ae796e62f72bf38e8ba2b8b79671bae3934563d3afc41"
		c  = "2b3a9ed497945067748efbe9a86d462b993caf53e3e0b2538bc9f0a088f325c9"
		a2 = "87ad44961aa99776626a6ac7835700d81aa2d6ee6225e18e38a1c6152a147d30"
		a3 = "81ca9586497476c1c1763d22e2b04d5e83ac6efcb6b1b061e5cb8f544221e411"
		d  = "49ccdfbe3e41790767d23a13b3ef41cae4806b68cc967be9f4877357edc6f7a3"
	)
	alicePath := AccessPathOf("e0")
	want := []struct {
		id, client string
		level      AccessLevel
		ap         AccessPath
		expiry     int64
		status     GrantStatus
		successor  string
	}{
		{a, "/users/alice/KEY/1", 2, alicePath, 1700000000, GrantRenewed, a2},
		{b, "/users/bob/KEY/1", 3, AccessPathAny, 1700000600, GrantActive, ""},
		{c, "/users/carol/KEY/1", 1, AccessPathOf("e1", "relay1"), 1700001200, GrantRevoked, ""},
		{a2, "/users/alice/KEY/1", 2, alicePath, 1700003600, GrantRevoked, a3},
		{a3, "/users/alice/KEY/1", 2, alicePath, 1700007200, GrantActive, ""},
		{d, "/users/dave/KEY/1", 4, AccessPathOf("e2"), 1700010800, GrantActive, ""},
	}
	mustID := func(s string) TagID {
		t.Helper()
		id, err := ParseTagID(s)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	for _, w := range want {
		rec, ok := s.Lookup(mustID(w.id))
		if !ok {
			t.Errorf("grant %s missing after replay", w.id[:12])
			continue
		}
		var succ TagID
		if w.successor != "" {
			succ = mustID(w.successor)
		}
		if rec.ClientKey.String() != w.client || rec.Level != w.level || rec.AccessPath != w.ap ||
			!rec.Expiry.Equal(time.Unix(w.expiry, 0)) || rec.Status != w.status || rec.Successor != succ {
			t.Errorf("grant %s = %+v, want %+v", w.id[:12], rec, w)
		}
	}
	if n := len(s.Records()); n != len(want) {
		t.Errorf("replayed %d records, want %d", n, len(want))
	}
	if got := s.Outstanding(); got != 3 {
		t.Errorf("Outstanding() = %d, want 3 (bob, alice's third grant, dave)", got)
	}
	version, ids := s.Revocations().Snapshot()
	got := make([]string, 0, len(ids))
	for _, id := range ids {
		got = append(got, id.String())
	}
	sort.Strings(got)
	if version != 2 || len(got) != 2 || got[0] != c || got[1] != a2 {
		t.Errorf("revocation set = v%d %v, want v2 [%s %s]", version, got, c[:12], a2[:12])
	}
	// The torn final line is cut off, so the next append starts on a
	// clean line boundary.
	on, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := bytes.LastIndexByte(fixture, '\n') + 1
	if !bytes.Equal(on, fixture[:torn]) {
		t.Errorf("ledger after replay is %d bytes, want the %d bytes before the torn line", len(on), torn)
	}
}
