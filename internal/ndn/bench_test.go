package ndn

import (
	"math/rand"
	"strconv"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/pki"
)

func benchNames(n int) []names.Name {
	out := make([]names.Name, n)
	for i := range out {
		out[i] = names.MustNew("prov"+strconv.Itoa(i%10), "obj"+strconv.Itoa(i%50), "chunk"+strconv.Itoa(i%50))
	}
	return out
}

func BenchmarkFIBLookup(b *testing.B) {
	f := NewFIB()
	for p := 0; p < 10; p++ {
		f.Insert(names.MustNew("prov"+strconv.Itoa(p)), FaceID(p))
	}
	nms := benchNames(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Lookup(nms[i%len(nms)])
	}
}

func BenchmarkPITInsertConsume(b *testing.B) {
	p := NewPIT()
	nms := benchNames(1024)
	deadline := time.Unix(1<<31, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := nms[i%len(nms)]
		p.Admit(n, PITRecord{InFace: 1, Nonce: uint64(i)}, time.Time{}, deadline)
		p.Consume(n)
	}
}

func BenchmarkCSLookupHit(b *testing.B) {
	cs := NewCS(1024)
	nms := benchNames(1024)
	for _, n := range nms {
		cs.Insert(&core.Content{Meta: core.ContentMeta{Name: n}})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Lookup(nms[i%len(nms)])
	}
}

func BenchmarkInterestTLVEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	signer, err := pki.GenerateFast(rng, names.MustParse("/prov0/KEY/1"))
	if err != nil {
		b.Fatal(err)
	}
	tag, err := core.IssueTag(signer, names.MustParse("/u/KEY/1"), 3, 0, time.Unix(1<<31, 0))
	if err != nil {
		b.Fatal(err)
	}
	i := &Interest{Name: names.MustParse("/prov0/obj/c0"), Kind: KindContent, Nonce: 1, Tag: tag, Flag: 0.1}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := EncodeInterest(i); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterestTLVDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	signer, err := pki.GenerateFast(rng, names.MustParse("/prov0/KEY/1"))
	if err != nil {
		b.Fatal(err)
	}
	tag, err := core.IssueTag(signer, names.MustParse("/u/KEY/1"), 3, 0, time.Unix(1<<31, 0))
	if err != nil {
		b.Fatal(err)
	}
	enc, err := EncodeInterest(&Interest{Name: names.MustParse("/prov0/obj/c0"), Kind: KindContent, Nonce: 1, Tag: tag})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := DecodeInterest(enc); err != nil {
			b.Fatal(err)
		}
	}
}
