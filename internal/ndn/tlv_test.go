package ndn

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/pki"
)

// tlvFixtures builds a signed tag, content, and registration pair.
func tlvFixtures(t *testing.T) (*core.Tag, *core.Content, *core.RegistrationRequest, *core.RegistrationResponse) {
	t.Helper()
	tag, content, req, resp, err := newTLVFixtures()
	if err != nil {
		t.Fatal(err)
	}
	return tag, content, req, resp
}

// newTLVFixtures is tlvFixtures reporting failure as an error.
func newTLVFixtures() (*core.Tag, *core.Content, *core.RegistrationRequest, *core.RegistrationResponse, error) {
	rng := rand.New(rand.NewSource(1))
	signer, err := pki.GenerateFast(rng, names.MustParse("/prov0/KEY/1"))
	if err != nil {
		return nil, nil, nil, nil, err
	}
	prov, err := core.NewProvider(names.MustParse("/prov0"), signer, time.Minute, rng)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	content, err := prov.Publish(names.MustParse("/prov0/obj/c0"), 2, []byte("payload"))
	if err != nil {
		return nil, nil, nil, nil, err
	}
	cliSigner, err := pki.GenerateFast(rng, names.MustParse("/u/alice/KEY/1"))
	if err != nil {
		return nil, nil, nil, nil, err
	}
	cl, err := core.NewClient(cliSigner, rng)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	prov.Enroll(cl.KeyLocator(), cliSigner.Public(), 3)
	req, err := cl.NewRegistrationRequest(core.AccessPathOf("ap0"))
	if err != nil {
		return nil, nil, nil, nil, err
	}
	resp, err := prov.Register(req, time.Unix(100, 0))
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return resp.Tag, content, &req, resp, nil
}

// fullPackets encodes an Interest and a Data with every field set — tag,
// F, access path, registration request or response, trace context,
// NACK and reason, content: what a reused decode target holds at its
// dirtiest.
var fullPackets = sync.OnceValues(func() (interest, data []byte) {
	tag, content, req, resp, err := newTLVFixtures()
	if err != nil {
		panic(err)
	}
	name := names.MustParse("/prov0/obj/c0")
	tc := TraceContext{TraceID: 0xDEADBEEF, ParentID: 0xCAFE, Sampled: true, Hops: 3}
	if interest, err = EncodeInterest(&Interest{Name: name, Kind: KindRegistration, Nonce: 7,
		Tag: tag, Flag: 0.5, AccessPath: 99, Registration: req, Trace: tc}); err != nil {
		panic(err)
	}
	if data, err = EncodeData(&Data{Name: name, Content: content, Tag: tag, Flag: 0.25,
		Nack: true, NackReason: core.ErrTagExpired, Registration: resp, Trace: tc}); err != nil {
		panic(err)
	}
	return interest, data
})

// dirtyTargets returns decode targets that last held fullPackets; the
// Data's Content is its content target.
func dirtyTargets(t *testing.T) (*Interest, *Data) {
	t.Helper()
	iEnc, dEnc := fullPackets()
	var i Interest
	var d Data
	if err := DecodeInterestInto(&i, iEnc); err != nil {
		t.Fatal(err)
	}
	if err := DecodeDataInto(&d, new(core.Content), dEnc); err != nil {
		t.Fatal(err)
	}
	if i.Registration == nil || i.Tag == nil || !i.Trace.Valid() || d.Content == nil || d.Registration == nil || d.NackReason == nil {
		t.Fatalf("full packets decoded partially: %+v / %+v", i, d)
	}
	return &i, &d
}

// requireSameInterest decodes enc into a dirty target and requires it to
// equal a fresh DecodeInterest field for field, errors included.
func requireSameInterest(t *testing.T, enc []byte) {
	t.Helper()
	dirty, _ := dirtyTargets(t)
	fresh, freshErr := DecodeInterest(enc)
	intoErr := DecodeInterestInto(dirty, enc)
	if fmt.Sprint(freshErr) != fmt.Sprint(intoErr) {
		t.Fatalf("DecodeInterestInto err %v, DecodeInterest err %v", intoErr, freshErr)
	}
	if freshErr == nil && !sameInterest(*dirty, *fresh) {
		t.Fatalf("Interest decoded into a dirty target:\n%+v\nfresh:\n%+v", *dirty, *fresh)
	}
}

// requireSameData is requireSameInterest for Data.
func requireSameData(t *testing.T, enc []byte) {
	t.Helper()
	_, dirty := dirtyTargets(t)
	fresh, freshErr := DecodeData(enc)
	intoErr := DecodeDataInto(dirty, dirty.Content, enc)
	if fmt.Sprint(freshErr) != fmt.Sprint(intoErr) {
		t.Fatalf("DecodeDataInto err %v, DecodeData err %v", intoErr, freshErr)
	}
	if freshErr == nil && !sameData(*dirty, *fresh) {
		t.Fatalf("Data decoded into a dirty target:\n%+v\nfresh:\n%+v", *dirty, *fresh)
	}
}

// sameInterest compares two decoded Interests field for field, the flag
// bit for bit: a NaN flag crosses the wire and equals nothing under
// reflect.DeepEqual.
func sameInterest(a, b Interest) bool {
	if math.Float64bits(a.Flag) != math.Float64bits(b.Flag) {
		return false
	}
	a.Flag, b.Flag = 0, 0
	return reflect.DeepEqual(a, b)
}

// sameData is sameInterest for Data.
func sameData(a, b Data) bool {
	if math.Float64bits(a.Flag) != math.Float64bits(b.Flag) {
		return false
	}
	a.Flag, b.Flag = 0, 0
	return reflect.DeepEqual(a, b)
}

// TestDecodeIntoDirtyTarget: a target that last held a fully populated
// packet decodes every other packet exactly as a fresh decode does — no
// field of the packet before survives.
func TestDecodeIntoDirtyTarget(t *testing.T) {
	tag, content, reg, resp := tlvFixtures(t)
	name := names.MustParse("/prov0/obj/c1")
	interests := []*Interest{
		{Name: name, Nonce: 1}, // Kind defaults to content
		{Name: name, Kind: KindContent, Nonce: 2, Tag: tag},
		{Name: name, Kind: KindContent, Nonce: 3, Flag: 1e-4, AccessPath: 5},
		{Name: name, Kind: KindRegistration, Nonce: 4, Registration: reg},
		{Name: name, Kind: KindContent, Nonce: 5, Trace: TraceContext{TraceID: 1, ParentID: 2}},
	}
	for _, in := range interests {
		enc, err := EncodeInterest(in)
		if err != nil {
			t.Fatal(err)
		}
		requireSameInterest(t, enc)
	}
	datas := []*Data{
		{Name: name},
		{Name: name, Content: content},
		{Name: name, Tag: tag, Nack: true},
		{Name: name, Tag: tag, Nack: true, NackReason: core.ErrOverload},
		{Name: name, Registration: resp},
		{Name: name, Content: content, Flag: 0.5, Trace: TraceContext{TraceID: 3, ParentID: 4, Hops: 1}},
	}
	for _, in := range datas {
		enc, err := EncodeData(in)
		if err != nil {
			t.Fatal(err)
		}
		requireSameData(t, enc)
	}
	// A failed decode reports the owned form's error.
	iEnc, dEnc := fullPackets()
	for _, enc := range [][]byte{nil, iEnc[:len(iEnc)/2], dEnc[:len(dEnc)-1], dEnc, iEnc} {
		requireSameInterest(t, enc)
		requireSameData(t, enc)
	}
}

// TestDecodeDataAllocs holds the owned Data decoder to what its caller
// keeps: the Data and its Content as one object, and the Content's copy
// of its encoding.
func TestDecodeDataAllocs(t *testing.T) {
	tag, content, _, _ := tlvFixtures(t)
	enc, err := EncodeData(&Data{Name: content.Meta.Name, Content: content, Tag: tag, Flag: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeData(enc); err != nil { // warm the intern tables
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := DecodeData(enc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2 {
		t.Errorf("DecodeData with content allocates %.1f/op on warm tables, want 2", allocs)
	}
}

func TestInterestTLVRoundTrip(t *testing.T) {
	tag, _, reg, _ := tlvFixtures(t)
	cases := []*Interest{
		{Name: names.MustParse("/prov0/obj/c0"), Kind: KindContent, Nonce: 42},
		{Name: names.MustParse("/prov0/obj/c1"), Kind: KindContent, Nonce: 7, Tag: tag, Flag: 0.25, AccessPath: 99},
		{Name: names.MustParse("/prov0/register/alice/n1"), Kind: KindRegistration, Nonce: 9, Registration: reg},
	}
	for i, in := range cases {
		enc, err := EncodeInterest(in)
		if err != nil {
			t.Fatalf("case %d encode: %v", i, err)
		}
		out, err := DecodeInterest(enc)
		if err != nil {
			t.Fatalf("case %d decode: %v", i, err)
		}
		if !out.Name.Equal(in.Name) || out.Kind != in.Kind || out.Nonce != in.Nonce ||
			out.Flag != in.Flag || out.AccessPath != in.AccessPath {
			t.Errorf("case %d scalar mismatch: %+v vs %+v", i, out, in)
		}
		if (out.Tag == nil) != (in.Tag == nil) {
			t.Fatalf("case %d tag presence mismatch", i)
		}
		if in.Tag != nil && !bytes.Equal(out.Tag.Encode(), in.Tag.Encode()) {
			t.Errorf("case %d tag mismatch", i)
		}
		if (out.Registration == nil) != (in.Registration == nil) {
			t.Fatalf("case %d registration presence mismatch", i)
		}
		if in.Registration != nil && !bytes.Equal(out.Registration.Credential, in.Registration.Credential) {
			t.Errorf("case %d registration mismatch", i)
		}
	}
}

func TestDataTLVRoundTrip(t *testing.T) {
	tag, content, _, resp := tlvFixtures(t)
	cases := []*Data{
		{Name: names.MustParse("/prov0/obj/c0"), Content: content, Tag: tag, Flag: 0.001},
		{Name: names.MustParse("/prov0/obj/c0"), Content: content, Tag: tag, Nack: true},
		{Name: names.MustParse("/prov0/register/alice/n1"), Registration: resp},
		{Name: names.MustParse("/prov0/obj/c9"), Tag: tag, Nack: true}, // pure NACK
	}
	for i, in := range cases {
		enc, err := EncodeData(in)
		if err != nil {
			t.Fatalf("case %d encode: %v", i, err)
		}
		out, err := DecodeData(enc)
		if err != nil {
			t.Fatalf("case %d decode: %v", i, err)
		}
		if !out.Name.Equal(in.Name) || out.Nack != in.Nack || out.Flag != in.Flag {
			t.Errorf("case %d scalar mismatch", i)
		}
		if (out.Content == nil) != (in.Content == nil) {
			t.Fatalf("case %d content presence mismatch", i)
		}
		if in.Content != nil && !bytes.Equal(out.Content.Payload, in.Content.Payload) {
			t.Errorf("case %d payload mismatch", i)
		}
		if (out.Registration == nil) != (in.Registration == nil) {
			t.Fatalf("case %d registration presence mismatch", i)
		}
		if in.Registration != nil && !bytes.Equal(out.Registration.Tag.Encode(), in.Registration.Tag.Encode()) {
			t.Errorf("case %d registration tag mismatch", i)
		}
	}
}

func TestTLVDecodeErrors(t *testing.T) {
	tag, content, _, _ := tlvFixtures(t)
	d := &Data{Name: names.MustParse("/a/b"), Content: content, Tag: tag}
	enc, err := EncodeData(d)
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation fails cleanly.
	for cut := 1; cut < len(enc); cut += 11 {
		if _, err := DecodeData(enc[:cut]); err == nil {
			t.Fatalf("truncated data at %d accepted", cut)
		}
	}
	// Type confusion: an Interest buffer is not a Data.
	i := &Interest{Name: names.MustParse("/a"), Kind: KindContent, Nonce: 1}
	ienc, err := EncodeInterest(i)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeData(ienc); err == nil {
		t.Error("Interest decoded as Data")
	}
	if _, err := DecodeInterest(enc); err == nil {
		t.Error("Data decoded as Interest")
	}
	if _, err := DecodeInterest(nil); err == nil {
		t.Error("empty buffer decoded")
	}
}

func TestTLVUnknownElementsSkipped(t *testing.T) {
	// NDN evolvability: unknown elements inside a packet are ignored.
	i := &Interest{Name: names.MustParse("/a/b"), Kind: KindContent, Nonce: 5}
	enc, err := EncodeInterest(i)
	if err != nil {
		t.Fatal(err)
	}
	// Append an unknown element inside the Interest body: rebuild with
	// extra bytes. Outer TLV: type(1) + len + body. Splice an unknown
	// element (type 0xE0, len 2) into the body and fix the outer length.
	body := enc[2:] // assumes 1-byte length (small packet)
	if int(enc[1]) != len(body) {
		t.Skip("packet grew beyond 1-byte length; splice test not applicable")
	}
	spliced := append([]byte{}, body...)
	spliced = append(spliced, 0xE0, 2, 0xAB, 0xCD)
	repacked := append([]byte{enc[0], byte(len(spliced))}, spliced...)
	out, err := DecodeInterest(repacked)
	if err != nil {
		t.Fatalf("unknown element broke decoding: %v", err)
	}
	if !out.Name.Equal(i.Name) || out.Nonce != 5 {
		t.Error("fields lost around unknown element")
	}
}

func TestVarLenBoundaries(t *testing.T) {
	for _, n := range []uint64{0, 1, 252, 253, 254, 65535, 65536, 1 << 20} {
		enc := appendVarLen(nil, n)
		r := tlvReader{buf: enc}
		got, err := r.varLen()
		if err != nil {
			t.Fatalf("varLen(%d): %v", n, err)
		}
		if got != n {
			t.Errorf("varLen round trip %d -> %d", n, got)
		}
	}
	// Reserved 255 prefix rejected.
	r := tlvReader{buf: []byte{255, 0, 0, 0, 0, 0, 0, 0, 0}}
	if _, err := r.varLen(); err == nil {
		t.Error("8-byte length prefix accepted (unsupported)")
	}
}

func TestTLVWireSizeAgreement(t *testing.T) {
	// The estimate used by the simulator should be within ~30% of the
	// real TLV encoding for representative packets.
	tag, content, _, _ := tlvFixtures(t)
	i := &Interest{Name: names.MustParse("/prov0/obj/c0"), Kind: KindContent, Nonce: 1, Tag: tag}
	ienc, err := EncodeInterest(i)
	if err != nil {
		t.Fatal(err)
	}
	checkClose(t, "interest", i.WireSize(), len(ienc))

	d := &Data{Name: names.MustParse("/prov0/obj/c0"), Content: content, Tag: tag}
	denc, err := EncodeData(d)
	if err != nil {
		t.Fatal(err)
	}
	checkClose(t, "data", d.WireSize(), len(denc))
}

func checkClose(t *testing.T, what string, estimate, actual int) {
	t.Helper()
	ratio := float64(estimate) / float64(actual)
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("%s size estimate %d vs TLV %d (ratio %.2f)", what, estimate, actual, ratio)
	}
}
