package node

import (
	"encoding/json"
	"errors"
	"math/bits"
	"math/rand"
	"os"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/bloom"
	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/enforce"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/pki"
)

// Faces of the node under test: clients on 1-4, the route on upFace,
// another upstream on otherFace.
const (
	upFace    ndn.FaceID = 9
	otherFace ndn.FaceID = 8
)

var (
	now     = time.Unix(1000, 0)
	prefix  = names.MustParse("/prov0")
	private = names.MustParse("/prov0/report/chunk0")
	apHome  = core.EmptyAccessPath.Accumulate("edge-0")
)

// env is a Core over real tables and a real enforcement router, driven
// the way a driver would: verification completes inline.
type env struct {
	*Core
	tactic *enforce.Router
	reg    *pki.Registry
	pit    *ndn.PIT
	cs     *ndn.CS
	prov   *pki.FastKeyPair
	rogue  *pki.FastKeyPair
}

func newEnv(t testing.TB, role Role, scheme core.Scheme) *env {
	t.Helper()
	return newEnvCfg(t, role, core.Config{Scheme: scheme, EdgeValidateOnMiss: true}) // the edge verifies, as in fidelity mode
}

// newEnvCfg is newEnv with the node's enforcement configuration.
func newEnvCfg(t testing.TB, role Role, cfg core.Config) *env {
	t.Helper()
	prov, err := pki.GenerateFast(rand.New(rand.NewSource(1)), names.MustParse("/prov0/KEY/1"))
	if err != nil {
		t.Fatal(err)
	}
	rogue, err := pki.GenerateFast(rand.New(rand.NewSource(2)), prov.Locator())
	if err != nil {
		t.Fatal(err)
	}
	reg := pki.NewRegistry()
	if err := reg.Register(prov.Locator(), prov.Public()); err != nil {
		t.Fatal(err)
	}
	bf, err := bloom.NewPaper(500, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{
		tactic: enforce.NewRouter("edge-0", bf, core.NewTagValidator(reg), rand.New(rand.NewSource(3)), cfg),
		reg:    reg,
		pit:    ndn.NewPIT(),
		cs:     ndn.NewCS(64),
		prov:   prov,
		rogue:  rogue,
	}
	fib := ndn.NewFIB()
	fib.Insert(prefix, upFace)
	e.Core = New(e.tactic, fib, e.pit, e.cs, role, 4*time.Second)
	return e
}

func (e *env) tag(t testing.TB, signer pki.Signer, user string) *core.Tag {
	t.Helper()
	tag, err := core.IssueTag(signer, names.MustParse("/users/"+user+"/KEY/1"), 3, apHome, now.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	return tag
}

func (e *env) content(name names.Name, level core.AccessLevel) *core.Content {
	return &core.Content{Meta: core.ContentMeta{Name: name, Level: level, ProviderKey: e.prov.Locator()}, Payload: []byte("x")}
}

// interest runs one Interest to a final step, verifying inline.
func (e *env) interest(i *ndn.Interest, from ndn.FaceID, checks Checks) Step {
	st := e.OnInterest(i, from, checks, now)
	for st.Action == Verify {
		st = e.ResumeInterest(i, from, st.Pending, e.tactic.VerifyMiss(st.Pending.Input(i, now)), now)
	}
	return st
}

func forEachScheme(t *testing.T, body func(t *testing.T, scheme core.Scheme)) {
	for _, scheme := range []core.Scheme{core.SchemeTACTIC, core.SchemeIBAC} {
		t.Run(scheme.String(), func(t *testing.T) { body(t, scheme) })
	}
}

// TestCoreRows: one case per behaviour the two planes used to disagree on
// (DESIGN.md §6b) and the core now settles, under both schemes.
func TestCoreRows(t *testing.T) {
	forEachScheme(t, func(t *testing.T, scheme core.Scheme) {
		t.Run("fresh nonce on a pending name reports the entry's out-face", func(t *testing.T) {
			e := newEnv(t, RoleCore, scheme)
			i := &ndn.Interest{Name: private, Kind: ndn.KindContent, Nonce: 1}
			if st := e.interest(i, 1, Protocol3); st.Action != Forward || st.Face != upFace {
				t.Fatalf("first Interest: %+v, want Forward on %d", st, upFace)
			}
			i2 := &ndn.Interest{Name: private, Kind: ndn.KindContent, Nonce: 2}
			if st := e.interest(i2, 2, Protocol3); st.Action != Aggregate || st.Face != upFace {
				t.Errorf("fresh nonce: %+v, want Aggregate reporting out-face %d", st, upFace)
			}
			if st := e.interest(i2, 3, Protocol3); st.Action != Drop || st.Cause != DropDupNonce {
				t.Errorf("same nonce again: %+v, want Drop %s", st, DropDupNonce)
			}
		})
		t.Run("no route reports no_route and leaves the entry to the driver", func(t *testing.T) {
			e := newEnv(t, RoleCore, scheme)
			i := &ndn.Interest{Name: names.MustParse("/elsewhere/x"), Kind: ndn.KindContent, Nonce: 1}
			if st := e.interest(i, 1, Protocol3); st.Action != Drop || st.Cause != DropNoRoute {
				t.Fatalf("routeless Interest: %+v, want Drop %s", st, DropNoRoute)
			}
			if e.pit.Len() != 1 {
				t.Errorf("%d entries pending, want the fresh one left for the driver to keep or consume", e.pit.Len())
			}
		})
		t.Run("content hit with denied tag returns content and NACK", func(t *testing.T) {
			e := newEnv(t, RoleCore, scheme)
			e.cs.Insert(e.content(private, 2))
			i := &ndn.Interest{Name: private, Kind: ndn.KindContent, Nonce: 1, Tag: e.tag(t, e.rogue, "mallory")}
			st := e.OnInterest(i, 1, Protocol3, now)
			if st.Action != Verify || st.Pending.Op != enforce.OpContent || st.Stage != enforce.StageContent {
				t.Fatalf("unseen tag at F = 0: %+v, want Verify on the content checkpoint", st)
			}
			st = e.ResumeInterest(i, 1, st.Pending, e.tactic.VerifyMiss(st.Pending.Input(i, now)), now)
			if st.Action != Reply || st.Reply.Content == nil || !st.Reply.Nack || !errors.Is(st.Reply.Reason, core.ErrTagForged) {
				t.Errorf("forged tag on a hit: %+v, want the content alongside a forged NACK", st.Reply)
			}
			if e.pit.Len() != 0 {
				t.Error("a content-store hit reached the PIT")
			}
		})
		t.Run("a hit meets no checkpoint without Protocol3", func(t *testing.T) {
			e := newEnv(t, RoleCore, scheme)
			e.cs.Insert(e.content(private, 2))
			i := &ndn.Interest{Name: private, Kind: ndn.KindContent, Nonce: 1, Flag: 0.5}
			st := e.OnInterest(i, 1, 0, now)
			if st.Action != Reply || st.Reply.Content == nil || st.Reply.Nack || st.Reply.Flag != 0.5 || st.Stage != enforce.StageNone {
				t.Errorf("plain NDN hit: %+v, want the content, F passed through, no checkpoint", st)
			}
			if got := e.tactic.Bloom().Stats().Lookups; got != 0 {
				t.Errorf("%d Bloom-filter lookups, want 0", got)
			}
		})
		t.Run("edge verify seam: shed, refuse, admit", func(t *testing.T) {
			e := newEnv(t, RoleEdge, scheme)
			checks := Protocol2 | Protocol3
			i := &ndn.Interest{Name: private, Kind: ndn.KindContent, Nonce: 1, Tag: e.tag(t, e.prov, "alice"), AccessPath: apHome}
			st := e.OnInterest(i, 1, checks, now)
			if st.Action != Verify || st.Pending.Op != enforce.OpEdgeInterest {
				t.Fatalf("unseen tag at the edge: %+v, want Verify on the edge checkpoint", st)
			}
			if shed := e.ResumeInterest(i, 1, st.Pending, enforce.Shed(st.Stage), now); shed.Action != Reply ||
				!shed.Reply.Nack || shed.Reply.Content != nil || !errors.Is(shed.Reply.Reason, core.ErrOverload) {
				t.Errorf("shed: %+v, want a bare overload NACK", shed)
			}
			if e.pit.Len() != 0 {
				t.Error("a refused Interest reached the PIT")
			}
			if st := e.interest(i, 1, checks); st.Action != Forward || st.Face != upFace || st.Stage != enforce.StageEdgeInterest {
				t.Errorf("verified: %+v, want Forward on %d with the edge checkpoint consulted", st, upFace)
			}
			forged := &ndn.Interest{Name: private, Kind: ndn.KindContent, Nonce: 2, Tag: e.tag(t, e.rogue, "mallory"), AccessPath: apHome}
			if st := e.interest(forged, 2, checks); st.Action != Reply || !st.Reply.Nack || !errors.Is(st.Reply.Reason, core.ErrTagForged) {
				t.Errorf("forged at the edge: %+v, want a forged NACK", st)
			}
			// Protocol 2 is for content Interests on faces the driver says.
			if st := e.interest(forged, 2, Protocol3); st.Action != Aggregate {
				t.Errorf("not a client-side arrival: %+v, want it aggregated unchecked", st)
			}
		})
		t.Run("edge DeliverNothing answers tagged and tagless with a bare NACK", func(t *testing.T) {
			e := newEnv(t, RoleEdge, scheme)
			tagged := &ndn.Interest{Name: private, Kind: ndn.KindContent, Nonce: 1, Tag: e.tag(t, e.prov, "alice"), AccessPath: apHome}
			if st := e.interest(tagged, 1, Protocol2|Protocol3); st.Action != Forward {
				t.Fatalf("tagged Interest: %+v", st)
			}
			if st := e.interest(&ndn.Interest{Name: private, Kind: ndn.KindContent, Nonce: 2}, 2, Protocol2|Protocol3); st.Action != Aggregate {
				t.Fatalf("tagless Interest: %+v", st)
			}
			d := &ndn.Data{Name: private, Content: e.content(private, 2), Tag: tagged.Tag, Nack: true, NackReason: core.ErrTagExpired}
			recs, cause := e.OnData(d, upFace, true, nil)
			if cause != "" || len(recs) != 2 {
				t.Fatalf("OnData = %d records, %q", len(recs), cause)
			}
			primary := e.OnRecord(d, recs[0], true, now)
			if primary.Cause != DropUndeliverable || !primary.Answer.Nack ||
				primary.Answer.Content != nil || !errors.Is(primary.Answer.Reason, core.ErrTagExpired) {
				t.Errorf("NACKed primary: %+v, want undeliverable, a bare expired NACK to fail fast with", primary)
			}
			if tagless := e.OnRecord(d, recs[1], false, now); tagless.Cause != DropUndeliverable || !tagless.Answer.Nack ||
				tagless.Answer.Content != nil || !errors.Is(tagless.Answer.Reason, core.ErrNoTag) {
				t.Errorf("tagless requester of private content: %+v, want undeliverable, a bare no-tag NACK", tagless)
			}
		})
		t.Run("an intermediate relays the primary's NACK with the content", func(t *testing.T) {
			e := newEnv(t, RoleCore, scheme)
			i := &ndn.Interest{Name: private, Kind: ndn.KindContent, Nonce: 1, Tag: e.tag(t, e.rogue, "mallory")}
			if st := e.interest(i, 1, Protocol3); st.Action != Forward {
				t.Fatalf("%+v", st)
			}
			d := &ndn.Data{Name: private, Content: e.content(private, 2), Tag: i.Tag, Nack: true, NackReason: core.ErrTagForged}
			recs, _ := e.OnData(d, upFace, true, nil)
			dl := e.OnRecord(d, recs[0], true, now)
			if dl.Cause != "" || dl.Answer.Content == nil || !dl.Answer.Nack || dl.Minted {
				t.Errorf("relayed: %+v, want content alongside the upstream's NACK, not minted here", dl)
			}
			if names := e.cs.Names(); len(names) != 1 {
				t.Errorf("cached %v, want the arrived content", names)
			}
		})
		t.Run("an origin answers from its catalogue or not at all", func(t *testing.T) {
			e := newEnv(t, RoleOrigin, scheme)
			e.Core = New(e.tactic, nil, nil, e.cs, RoleOrigin, 0)
			e.cs.Insert(e.content(private, core.Public))
			if st := e.interest(&ndn.Interest{Name: private, Kind: ndn.KindContent, Nonce: 1}, 1, Protocol3); st.Action != Reply || st.Reply.Nack {
				t.Errorf("published: %+v, want the content", st)
			}
			if st := e.interest(&ndn.Interest{Name: prefix.MustAppend("nope"), Kind: ndn.KindContent, Nonce: 2}, 1, Protocol3); st.Action != Drop || st.Cause != DropNoRoute {
				t.Errorf("unpublished: %+v, want Drop %s", st, DropNoRoute)
			}
			if st := e.interest(&ndn.Interest{Name: prefix.MustAppend("register", "a"), Kind: ndn.KindRegistration, Nonce: 3}, 1, Protocol3); st.Action != Register {
				t.Errorf("registration: %+v, want Register", st)
			}
		})
	})
}

// unsolicitedCase is one row of testdata/unsolicited_data.json: the table
// this test, the simulator's (internal/network) and the live forwarder's
// (internal/forwarder) all run.
type unsolicitedCase struct {
	Name         string `json:"name"`
	Pending      bool   `json:"pending"`
	Registration bool   `json:"registration"`
	FromOutFace  bool   `json:"from_out_face"`
	Accepted     bool   `json:"accepted"`
}

func unsolicitedCases(t *testing.T) []unsolicitedCase {
	t.Helper()
	raw, err := os.ReadFile("testdata/unsolicited_data.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []unsolicitedCase
	if err := json.Unmarshal(raw, &cases); err != nil || len(cases) == 0 {
		t.Fatalf("unsolicited_data.json: %d cases, %v", len(cases), err)
	}
	return cases
}

// TestUnsolicitedDataChangesNothing: a Data that is not the answer to a
// pending Interest, on the face that Interest left on, is dropped before
// the content store and the Bloom filter and leaves the entry pending; a
// registration response at an edge inserts its tag only after the consume.
func TestUnsolicitedDataChangesNothing(t *testing.T) {
	for _, tc := range unsolicitedCases(t) {
		t.Run(tc.Name, func(t *testing.T) {
			e := newEnv(t, RoleEdge, core.SchemeTACTIC)
			name, kind := private, ndn.KindContent
			d := &ndn.Data{Name: name, Content: e.content(name, core.Public)}
			if tc.Registration {
				name, kind = prefix.MustAppend("register", "alice"), ndn.KindRegistration
				d = &ndn.Data{Name: name, Registration: &core.RegistrationResponse{Tag: e.tag(t, e.rogue, "mallory")}}
			}
			if tc.Pending {
				if st := e.interest(&ndn.Interest{Name: name, Kind: kind, Nonce: 1}, 1, Protocol2|Protocol3); st.Action != Forward || st.Face != upFace {
					t.Fatalf("%+v", st)
				}
			}
			from := upFace
			if !tc.FromOutFace {
				from = otherFace
			}
			recs, cause := e.OnData(d, from, true, nil)
			inserted := e.tactic.Bloom().Stats().Insertions == 1
			cached := len(e.cs.Names()) == 1
			if tc.Accepted {
				if cause != "" || len(recs) != 1 || inserted != tc.Registration || cached == tc.Registration || e.pit.Len() != 0 {
					t.Errorf("solicited: cause %q, %d records, inserted %v, cached %v, %d pending", cause, len(recs), inserted, cached, e.pit.Len())
				}
				return
			}
			if cause != DropUnsolicited || len(recs) != 0 || inserted || cached {
				t.Errorf("unsolicited: cause %q, %d records, inserted %v, cached %v — want dropped, nothing changed", cause, len(recs), inserted, cached)
			}
			if pending := e.pit.Len() == 1; pending != tc.Pending {
				t.Errorf("entry pending = %v, want %v", pending, tc.Pending)
			}
		})
	}
}

// TestOriginHearsNoData: an origin forwards nothing, so every Data it
// hears — content or a registration response — is unsolicited, and its
// core (no PIT, as the simulator's origin is built) caches nothing and
// vouches for no tag.
func TestOriginHearsNoData(t *testing.T) {
	e := newEnv(t, RoleEdge, core.SchemeTACTIC)
	origin := New(e.tactic, nil, nil, e.cs, RoleOrigin, 0)
	for _, d := range []*ndn.Data{
		{Name: private, Content: e.content(private, core.Public)},
		{Name: prefix.MustAppend("register", "alice"), Registration: &core.RegistrationResponse{Tag: e.tag(t, e.rogue, "mallory")}},
	} {
		if recs, cause := origin.OnData(d, upFace, true, nil); cause != DropUnsolicited || len(recs) != 0 {
			t.Errorf("%s: cause %q, %d records; want %q", d.Name, cause, len(recs), DropUnsolicited)
		}
	}
	if n := e.cs.Len(); n != 0 || e.tactic.Bloom().Stats().Insertions != 0 {
		t.Errorf("origin cached %d chunks, inserted %d tags; want nothing", n, e.tactic.Bloom().Stats().Insertions)
	}
}

// controlCase is one row of testdata/control.json: the frames the node
// has already applied (Before), the frame under test, its outcome and the
// node's end state. This test, the simulator's (internal/network) and the
// live forwarder's (internal/forwarder) all run the table; this test and
// the live forwarder's also run testdata/control_origin.json, where an
// origin refuses every frame.
type controlCase struct {
	Name    string        `json:"name"`
	Before  []ndn.Control `json:"before"`
	Frame   ndn.Control   `json:"frame"`
	Outcome string        `json:"outcome"`
	controlState
}

// controlState is the enforcement state a control frame can change.
type controlState struct {
	RevocationVersion uint64 `json:"revocation_version"`
	Revoked           int    `json:"revoked"`
	Epoch             uint64 `json:"epoch"`
	BFCount           uint64 `json:"bf_count"`
	BFBitsSet         int    `json:"bf_bits_set"`
}

func controlStateOf(r *enforce.Router) controlState {
	st := controlState{RevocationVersion: r.Revocations().Version(), Revoked: r.Revocations().Len(),
		Epoch: r.Epoch(), BFCount: r.Bloom().Count()}
	for _, w := range r.Bloom().Words() {
		st.BFBitsSet += bits.OnesCount64(w.Word)
	}
	return st
}

// TestControlTable: a revocation or rotation that advances the node is
// applied, flooded (and a revocation flushes parked verifications), one
// that does not is stale; a BF-sync advert ORs its words in and raises the
// count to the sender's; a malformed advert or an unknown kind is invalid
// and changes nothing. At an origin every frame is invalid.
func TestControlTable(t *testing.T) {
	for file, role := range map[string]Role{"control.json": RoleEdge, "control_origin.json": RoleOrigin} {
		raw, err := os.ReadFile("testdata/" + file)
		if err != nil {
			t.Fatal(err)
		}
		var cases []controlCase
		if err := json.Unmarshal(raw, &cases); err != nil || len(cases) == 0 {
			t.Fatalf("%s: %d cases, %v", file, len(cases), err)
		}
		forEachScheme(t, func(t *testing.T, scheme core.Scheme) {
			for _, tc := range cases {
				t.Run(tc.Name, func(t *testing.T) {
					e := newEnv(t, role, scheme)
					for i := range tc.Before {
						if st := e.OnControl(&tc.Before[i]); st.Outcome != ControlApplied {
							t.Fatalf("before[%d]: %+v", i, st)
						}
					}
					st := e.OnControl(&tc.Frame)
					applied := st.Outcome == ControlApplied
					if st.Outcome != tc.Outcome || st.Flood != (applied && tc.Frame.Kind != ndn.CtrlBFSync) ||
						st.FlushRevoked != (applied && tc.Frame.Kind == ndn.CtrlRevoke) || (st.Err != nil) != (st.Outcome == ControlInvalid) {
						t.Errorf("step %+v, want outcome %s", st, tc.Outcome)
					}
					if got := controlStateOf(e.tactic); got != tc.controlState {
						t.Errorf("end state %+v, want %+v", got, tc.controlState)
					}
				})
			}
		})
	}
}

// TestBFAdvertCarriesTheWholeFilter: a node that merges another's advert
// holds its filter and count, whatever it missed before; the advert is
// bounded by the filter's shape.
func TestBFAdvertCarriesTheWholeFilter(t *testing.T) {
	src, dst := newEnv(t, RoleEdge, core.SchemeTACTIC), newEnv(t, RoleEdge, core.SchemeTACTIC)
	for _, user := range []string{"alice", "bob", "carol"} {
		src.tactic.EdgeOnTagResponse(src.tag(t, src.prov, user))
	}
	m := src.BFAdvert("edge-1")
	if m.Kind != ndn.CtrlBFSync || m.Origin != "edge-1" || m.Count != 3 || len(m.Words) == 0 {
		t.Fatalf("advert %+v", m)
	}
	if st := dst.OnControl(m); st.Outcome != ControlApplied {
		t.Fatalf("%+v", st)
	}
	if got, want := controlStateOf(dst.tactic), controlStateOf(src.tactic); got != want {
		t.Errorf("receiver %+v, sender %+v", got, want)
	}

	// A saturated filter's advert is every word of the array.
	bf := src.tactic.Bloom()
	nwords := (bf.Bits() + 63) / 64
	ones := make([]bloom.WordDelta, nwords)
	for i := range ones {
		ones[i] = bloom.WordDelta{Index: uint32(i), Word: ^uint64(0)}
	}
	if err := bf.MergeWords(bf.Bits(), bf.Hashes(), ones, 0); err != nil {
		t.Fatal(err)
	}
	enc, err := ndn.EncodeControl(src.BFAdvert("edge-1"))
	if err != nil {
		t.Fatal(err)
	}
	if max := int(nwords)*12 + 64; len(enc) > max {
		t.Errorf("a full advert of %d words encodes to %d bytes, want at most %d", nwords, len(enc), max)
	}
}

// The allocation guards hold the core to what its tables allocate: the
// same traffic applied to bare tables is the allowance (zero, but for the
// records slice a second requester grows).

// TestOnInterestAllocs: a content-store hit through both checkpoints, a
// forward and an aggregate.
func TestOnInterestAllocs(t *testing.T) {
	e := newEnv(t, RoleEdge, core.SchemeTACTIC)
	checks := Protocol2 | Protocol3
	hot := names.MustParse("/prov0/hot/chunk0")
	e.cs.Insert(e.content(hot, 2))
	tag := e.tag(t, e.prov, "alice")
	hit := &ndn.Interest{Name: hot, Kind: ndn.KindContent, Nonce: 1, Tag: tag, AccessPath: apHome}
	if st := e.interest(hit, 1, checks); st.Action != Reply || st.Reply.Nack {
		t.Fatalf("warm: %+v", st)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if st := e.OnInterest(hit, 1, checks, now); st.Action != Reply || st.Reply.Nack {
			t.Fatalf("%+v", st)
		}
	}); allocs != 0 {
		t.Errorf("a content-store hit allocates %.1f/op, want 0", allocs)
	}

	first := &ndn.Interest{Name: private, Kind: ndn.KindContent, Nonce: 1, Tag: tag, AccessPath: apHome}
	second := &ndn.Interest{Name: private, Kind: ndn.KindContent, Nonce: 2, Tag: tag, AccessPath: apHome}
	d := &ndn.Data{Name: private, Nack: true}
	var scratch [4]ndn.PITRecord
	cycle := func(aggregate bool) func() {
		return func() {
			if st := e.OnInterest(first, 1, checks, now); st.Action != Forward {
				t.Fatalf("%+v", st)
			}
			if aggregate {
				if st := e.OnInterest(second, 2, checks, now); st.Action != Aggregate || st.Face != upFace {
					t.Fatalf("%+v", st)
				}
			}
			if _, cause := e.OnData(d, upFace, true, scratch[:0]); cause != "" {
				t.Fatal(cause)
			}
		}
	}
	cycle(false)() // warm the PIT's free list
	if allocs := testing.AllocsPerRun(1000, cycle(false)); allocs != 0 {
		t.Errorf("a forward and its Data allocate %.1f/op, want 0", allocs)
	}
	bare := ndn.NewPIT()
	allowance := testing.AllocsPerRun(1000, func() {
		bare.Admit(private, ndn.PITRecord{Nonce: 1}, now, now.Add(time.Second))
		bare.SetOutFace(private, upFace)
		bare.Admit(private, ndn.PITRecord{Nonce: 2}, now, now.Add(time.Second))
		bare.ConsumeFrom(private, upFace, scratch[:0])
	})
	if allocs := testing.AllocsPerRun(1000, cycle(true)); allocs > allowance {
		t.Errorf("a forward, an aggregate and their Data allocate %.1f/op, the bare PIT %.1f", allocs, allowance)
	}
}

// TestOnDataAllocs: a Data with four requesters, decided per record, on
// the caller's stack array.
func TestOnDataAllocs(t *testing.T) {
	e := newEnv(t, RoleCore, core.SchemeTACTIC)
	d := &ndn.Data{Name: private, Content: e.content(private, core.Public)}
	interests := make([]*ndn.Interest, 4)
	for n := range interests {
		interests[n] = &ndn.Interest{Name: private, Kind: ndn.KindContent, Nonce: uint64(n + 1)}
	}
	var scratch [4]ndn.PITRecord
	cycle := func() {
		for n, i := range interests {
			e.pit.Admit(private, ndn.PITRecord{InFace: ndn.FaceID(n + 1), Nonce: i.Nonce}, now, now.Add(time.Second))
		}
		e.pit.SetOutFace(private, upFace)
	}
	bare := testing.AllocsPerRun(200, func() {
		cycle()
		e.pit.ConsumeFrom(private, upFace, scratch[:0])
	})
	if allocs := testing.AllocsPerRun(200, func() {
		cycle()
		recs, cause := e.OnData(d, upFace, true, scratch[:0])
		if cause != "" || len(recs) != 4 {
			t.Fatalf("%d records, %q", len(recs), cause)
		}
		for n, rec := range recs {
			if dl := e.OnRecord(d, rec, n == 0, now); dl.Cause != "" || dl.Answer.Content == nil {
				t.Fatalf("%+v", dl)
			}
		}
	}); allocs > bare {
		t.Errorf("a Data with four requesters allocates %.1f/op, the bare PIT cycle %.1f", allocs, bare)
	}
}
