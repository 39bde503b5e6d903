package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/pki"
)

// The router-path benchmarks (edge hit, content trusted/verify) live in
// internal/enforce next to the decision engine; these cover core's own
// primitives.

// BenchmarkPreCheck is Protocol 1 alone.
func BenchmarkPreCheck(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	signer, err := pki.GenerateFast(rng, names.MustParse("/prov0/KEY/1"))
	if err != nil {
		b.Fatal(err)
	}
	tag, err := IssueTag(signer, names.MustParse("/u/alice/KEY/1"), 3, AccessPathOf("ap0"), time.Unix(1<<31, 0))
	if err != nil {
		b.Fatal(err)
	}
	meta := ContentMeta{Name: names.MustParse("/prov0/obj/c0"), Level: 2, ProviderKey: signer.Locator()}
	now := time.Unix(10, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := PreCheckEdge(tag, meta.Name, now); err != nil {
			b.Fatal(err)
		}
		if err := PreCheckContent(tag, meta); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIssueTag is the provider-side cost per registration.
func BenchmarkIssueTag(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	signer, err := pki.GenerateFast(rng, names.MustParse("/prov0/KEY/1"))
	if err != nil {
		b.Fatal(err)
	}
	client := names.MustParse("/u/alice/KEY/1")
	expiry := time.Unix(1<<31, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := IssueTag(signer, client, 3, AccessPath(i), expiry); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccessPathAccumulate is the per-hop AP cost at access points.
func BenchmarkAccessPathAccumulate(b *testing.B) {
	ap := EmptyAccessPath
	for i := 0; i < b.N; i++ {
		ap = ap.Accumulate("ap-7")
	}
	_ = ap
}

// benchProvider is a provider whose signer and content key come from a
// fixed seed.
func benchProvider(b *testing.B) *Provider {
	b.Helper()
	rng := rand.New(rand.NewSource(3))
	signer, err := pki.GenerateFast(rng, names.MustParse("/prov0/KEY/1"))
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewProvider(names.MustParse("/prov0"), signer, time.Hour, rng)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkIssue measures minting and recording a grant from parallel
// callers.
func BenchmarkIssue(b *testing.B) {
	p := benchProvider(b)
	client := names.MustParse("/u/alice/KEY/1")
	var i atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := i.Add(1)
			if _, err := p.Issue(client, AccessLevel(n%7), AccessPath(n), time.Unix(int64(1<<31+n), 0)); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkRevoke measures revocation across a storm of 4096: Revoke
// marks one grant record, so its cost does not grow with the number of
// grants already revoked (TestRevokeAllocs holds the allocations to
// that).
func BenchmarkRevoke(b *testing.B) {
	const pool = 4096
	client := names.MustParse("/u/alice/KEY/1")
	var p *Provider
	var ids []TagID
	rebuild := func() {
		p = benchProvider(b)
		ids = ids[:0]
		for i := 0; i < pool; i++ {
			tag, err := p.Issue(client, 1, AccessPath(uint64(i)), time.Unix(int64(1<<31+i), 0))
			if err != nil {
				b.Fatal(err)
			}
			ids = append(ids, tag.ID())
		}
	}
	rebuild()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%pool == 0 && i > 0 {
			b.StopTimer()
			rebuild()
			b.StartTimer()
		}
		if _, err := p.Revoke(ids[i%pool]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLedgerIssue measures minting with the ledger on the write
// path.
func BenchmarkLedgerIssue(b *testing.B) {
	p := benchProvider(b)
	if err := p.OpenLedger(b.TempDir() + "/ledger"); err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	client := names.MustParse("/u/alice/KEY/1")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Issue(client, 1, AccessPath(uint64(i)), time.Unix(int64(1<<31+i), 0)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLedgerReplay measures OpenLedger over a ledger of n issue
// lines followed by a revoke line for each: one replay is a pass over
// the lines, so its cost is linear in the ledger's length.
func BenchmarkLedgerReplay(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("revokes=%d", n), func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "ledger")
			p := benchProvider(b)
			if err := p.OpenLedger(path); err != nil {
				b.Fatal(err)
			}
			client := names.MustParse("/u/alice/KEY/1")
			ids := make([]TagID, 0, n)
			for i := 0; i < n; i++ {
				tag, err := p.Issue(client, 1, AccessPath(uint64(i)), time.Unix(int64(1<<31+i), 0))
				if err != nil {
					b.Fatal(err)
				}
				ids = append(ids, tag.ID())
			}
			for _, id := range ids {
				if _, err := p.Revoke(id); err != nil {
					b.Fatal(err)
				}
			}
			if err := p.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				r := benchProvider(b)
				b.StartTimer()
				if err := r.OpenLedger(path); err != nil {
					b.Fatal(err)
				}
				if err := r.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
