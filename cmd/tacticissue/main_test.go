package main

import (
	"crypto/rand"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/forwarder"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/transport"
)

// runOut runs the command with args and returns what it printed.
func runOut(t *testing.T, args ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	runErr := run(args)
	os.Stdout = stdout
	w.Close()
	printed := <-out
	r.Close()
	if runErr != nil {
		t.Fatalf("tacticissue %s: %v\n%s", strings.Join(args, " "), runErr, printed)
	}
	return printed
}

// field returns the n-th whitespace-separated word of the output's
// first line that starts with prefix.
func field(t *testing.T, out, prefix string, n int) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, prefix) {
			if f := strings.Fields(line); len(f) > n {
				return f[n]
			}
		}
	}
	t.Fatalf("no line starting %q with %d fields in:\n%s", prefix, n+1, out)
	return ""
}

// TestIssueRenewRevokeListPush drives the command through a grant's
// whole life against one ledger — issue, a roaming issue, renew, revoke,
// list — and pushes the revocation set to a live edge on loopback, which
// then holds the revoked ID.
func TestIssueRenewRevokeListPush(t *testing.T) {
	dir := t.TempDir()
	ledger := filepath.Join(dir, "prov0.ledger")
	keyPath := filepath.Join(dir, "prov0.key")
	key, err := pki.GenerateECDSA(rand.Reader, names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	pemKey, err := pki.MarshalECDSAPrivate(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(keyPath, pemKey, 0o600); err != nil {
		t.Fatal(err)
	}

	tagPath := filepath.Join(dir, "alice.tag")
	out := runOut(t, "issue", "-ledger", ledger, "-key", keyPath, "-client", "/users/alice/KEY/1",
		"-level", "2", "-ap", "e0", "-ttl", "1h", "-out", tagPath)
	alice := field(t, out, "issued ", 1)
	enc, err := os.ReadFile(tagPath)
	if err != nil {
		t.Fatal(err)
	}
	tag, err := core.DecodeTag(enc)
	if err != nil {
		t.Fatal(err)
	}
	if tag.ID().String() != alice || tag.Level != 2 || tag.AccessPath != core.AccessPathOf("e0") {
		t.Fatalf("written tag %s level %d ap %016x, printed ID %s", tag.ID(), tag.Level, uint64(tag.AccessPath), alice)
	}
	if err := key.Public().Verify(tag.SigningBytes(), tag.Signature); err != nil {
		t.Fatalf("issued tag is not signed by the provider key: %v", err)
	}

	out = runOut(t, "issue", "-ledger", ledger, "-key", keyPath, "-client", "/users/bob/KEY/1",
		"-level", "3", "-roam", "-ttl", "1h")
	bob := field(t, out, "issued ", 1)
	if ap := field(t, out, "  client ", 5); ap != "ffffffffffffffff" {
		t.Errorf("roaming grant printed access path %s, want the wildcard", ap)
	}

	out = runOut(t, "renew", "-ledger", ledger, "-key", keyPath, "-id", alice, "-ttl", "2h")
	if old := field(t, out, "renewed ", 1); old != alice {
		t.Errorf("renew printed %s as the old grant, want %s", old, alice)
	}
	alice2 := field(t, out, "renewed ", 3)
	if alice2 == alice || alice2 == bob {
		t.Fatalf("renewal minted %s, not a fresh grant", alice2)
	}

	out = runOut(t, "revoke", "-ledger", ledger, "-id", alice2)
	if got := field(t, out, "revoked ", 1); got != alice2 {
		t.Errorf("revoke printed %s, want %s", got, alice2)
	}
	if !strings.Contains(out, "revocation set: version 1, 1 entries") {
		t.Errorf("revoke output:\n%s", out)
	}

	out = runOut(t, "list", "-ledger", ledger)
	for id, status := range map[string]string{alice: "renewed", bob: "active", alice2: "revoked"} {
		if got := field(t, out, id, 1); got != status {
			t.Errorf("list shows %s as %s, want %s", id[:12], got, status)
		}
	}
	if !strings.Contains(out, "3 grants, 1 outstanding; revocation set version 1 (1 entries)") {
		t.Errorf("list summary:\n%s", out)
	}

	registry := pki.NewRegistry()
	if err := registry.Register(key.Locator(), key.Public()); err != nil {
		t.Fatal(err)
	}
	edge, err := forwarder.New(forwarder.Config{ID: "edge-0", Role: forwarder.RoleEdge, Registry: registry, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()
	ln, err := transport.ListenFace("127.0.0.1:0", transport.UDPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go edge.ServeFaces(ln) //nolint:errcheck // exits on close

	addr := ln.Addr().String()
	out = runOut(t, "push", "-ledger", ledger, "-to", addr)
	if want := "pushed revocation set v1 (1 entries) to " + addr; !strings.Contains(out, want) {
		t.Errorf("push output %q, want %q", out, want)
	}
	revoked, err := core.ParseTagID(alice2)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !edge.Tactic().Revocations().Contains(revoked) {
		if time.Now().After(deadline) {
			t.Fatal("the edge never applied the pushed revocation set")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v := edge.Tactic().Revocations().Version(); v != 1 {
		t.Errorf("edge revocation set version %d, want 1", v)
	}
}

// TestPushDropsExpiredRevocations: a revoked grant is in the pushed set
// until its T_e and not after — past T_e the tag is denied by its expiry,
// so the push forgets it while the version stays where it was.
func TestPushDropsExpiredRevocations(t *testing.T) {
	dir := t.TempDir()
	ledger := filepath.Join(dir, "prov0.ledger")
	keyPath := filepath.Join(dir, "prov0.key")
	key, err := pki.GenerateECDSA(rand.Reader, names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	pemKey, err := pki.MarshalECDSAPrivate(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(keyPath, pemKey, 0o600); err != nil {
		t.Fatal(err)
	}
	const ttl = 2 * time.Second
	out := runOut(t, "issue", "-ledger", ledger, "-key", keyPath, "-client", "/users/mallory/KEY/1",
		"-level", "2", "-ap", "e0", "-ttl", ttl.String())
	expired := time.Now().Add(ttl) // no earlier than the grant's T_e
	runOut(t, "revoke", "-ledger", ledger, "-id", field(t, out, "issued ", 1))

	edge, err := forwarder.New(forwarder.Config{ID: "edge-0", Role: forwarder.RoleEdge, Registry: pki.NewRegistry(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()
	ln, err := transport.ListenFace("127.0.0.1:0", transport.UDPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go edge.ServeFaces(ln) //nolint:errcheck // exits on close
	addr := ln.Addr().String()

	if out := runOut(t, "push", "-ledger", ledger, "-to", addr); !strings.Contains(out, "pushed revocation set v1 (1 entries)") {
		t.Errorf("push before T_e: %q, want the revoked grant in it", out)
	}
	time.Sleep(time.Until(expired) + 10*time.Millisecond)
	if out := runOut(t, "push", "-ledger", ledger, "-to", addr); !strings.Contains(out, "pushed revocation set v1 (0 entries)") {
		t.Errorf("push after T_e: %q, want the expired grant left out", out)
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	ledger := filepath.Join(dir, "l")
	for _, args := range [][]string{
		{},
		{"bogus"},
		{"issue", "-ledger", ledger},
		{"renew", "-ledger", ledger, "-key", "k"},
		{"revoke", "-ledger", ledger},
		{"revoke", "-ledger", ledger, "-id", "zz"},
		{"list"},
		{"push", "-ledger", ledger},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v): expected an error", args)
		}
	}
}
