package names

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseValid(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"/", nil},
		{"/a", []string{"a"}},
		{"/a/b/c", []string{"a", "b", "c"}},
		{"/prov0/obj12/chunk3", []string{"prov0", "obj12", "chunk3"}},
		{"/a/b/", []string{"a", "b"}}, // trailing slash tolerated
	}
	for _, tc := range cases {
		n, err := Parse(tc.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.in, err)
		}
		if got := n.Components(); !reflect.DeepEqual(got, tc.want) && !(len(got) == 0 && len(tc.want) == 0) {
			t.Errorf("Parse(%q) components = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestParseInvalid(t *testing.T) {
	for _, in := range []string{"", "a/b", "no-slash", "/a//b"} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q): expected error", in)
		}
	}
	if _, err := Parse(""); !errors.Is(err, ErrEmpty) {
		t.Errorf("Parse(\"\") err = %v, want ErrEmpty", err)
	}
	if _, err := Parse("abc"); !errors.Is(err, ErrMalformed) {
		t.Errorf("Parse(\"abc\") err = %v, want ErrMalformed", err)
	}
}

func TestNewRejectsBadComponents(t *testing.T) {
	if _, err := New("a", ""); err == nil {
		t.Error("New with empty component: expected error")
	}
	if _, err := New("a/b"); err == nil {
		t.Error("New with slash in component: expected error")
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, s := range []string{"/", "/a", "/a/b/c", "/prov/key/locator"} {
		n := MustParse(s)
		got := n.String()
		want := strings.TrimRight(s, "/")
		if want == "" {
			want = "/"
		}
		if got != want {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestPrefixAndParent(t *testing.T) {
	n := MustParse("/a/b/c/d")
	if got := n.Prefix(2).String(); got != "/a/b" {
		t.Errorf("Prefix(2) = %q", got)
	}
	if got := n.Prefix(0).String(); got != "/" {
		t.Errorf("Prefix(0) = %q", got)
	}
	if got := n.Prefix(99).String(); got != "/a/b/c/d" {
		t.Errorf("Prefix(99) = %q", got)
	}
	if got := (Name{}).Prefix(-1).String(); got != "/" {
		t.Errorf("Prefix(-1) of root = %q", got)
	}
}

func TestHasPrefix(t *testing.T) {
	n := MustParse("/a/b/c")
	for _, p := range []string{"/", "/a", "/a/b", "/a/b/c"} {
		if !n.HasPrefix(MustParse(p)) {
			t.Errorf("%v should have prefix %q", n, p)
		}
	}
	for _, p := range []string{"/a/b/c/d", "/b", "/a/c"} {
		if n.HasPrefix(MustParse(p)) {
			t.Errorf("%v should not have prefix %q", n, p)
		}
	}
}

func TestEqualAndCompare(t *testing.T) {
	a := MustParse("/a/b")
	b := MustParse("/a/b")
	c := MustParse("/a/c")
	d := MustParse("/a")
	if !a.Equal(b) {
		t.Error("identical names should be Equal")
	}
	if a.Equal(c) || a.Equal(d) {
		t.Error("different names should not be Equal")
	}
	if a.Compare(b) != 0 {
		t.Error("Compare of equal names should be 0")
	}
	if a.Compare(c) >= 0 {
		t.Error("/a/b < /a/c")
	}
	if a.Compare(d) <= 0 {
		t.Error("/a/b > /a (prefix orders first)")
	}
	if d.Compare(a) >= 0 {
		t.Error("/a < /a/b")
	}
}

func TestAppendImmutability(t *testing.T) {
	base := MustParse("/a")
	child := base.MustAppend("b", "c")
	if base.String() != "/a" {
		t.Errorf("Append mutated receiver: %v", base)
	}
	if child.String() != "/a/b/c" {
		t.Errorf("Append result = %v", child)
	}
	if _, err := base.Append("x/y"); err == nil {
		t.Error("Append with slash: expected error")
	}
	if _, err := base.Append(""); err == nil {
		t.Error("Append with empty: expected error")
	}
}

func TestComponentsCopyIsDefensive(t *testing.T) {
	n := MustParse("/a/b")
	cs := n.Components()
	cs[0] = "mutated"
	if n.Component(0) != "a" {
		t.Error("Components() must return a defensive copy")
	}
}

func TestProviderPrefix(t *testing.T) {
	if got := MustParse("/prov3/obj/chunk").ProviderPrefix().String(); got != "/prov3" {
		t.Errorf("ProviderPrefix = %q", got)
	}
	if (Name{}).ProviderPrefix().Len() != 0 {
		t.Error("ProviderPrefix of root should be root")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse of invalid name should panic")
		}
	}()
	MustParse("not-a-name")
}

// randomName generates names for property tests.
func randomName(r *rand.Rand) Name {
	n := r.Intn(6)
	comps := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln := 1 + r.Intn(8)
		b := make([]byte, ln)
		for j := range b {
			b[j] = byte('a' + r.Intn(26))
		}
		comps = append(comps, string(b))
	}
	return MustNew(comps...)
}

func TestPropertyParseStringRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomName(r)
		back, err := Parse(n.String())
		return err == nil && back.Equal(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyPrefixIsPrefix(t *testing.T) {
	f := func(seed int64, k uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomName(r)
		p := n.Prefix(int(k) % (n.Len() + 1))
		return n.HasPrefix(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyCompareTotalOrder(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomName(r), randomName(r)
		ab, ba := a.Compare(b), b.Compare(a)
		if ab != -ba {
			return false
		}
		return (ab == 0) == a.Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestParseBytesAgreesWithParse: the interned parse is Parse, first time
// and from the table, for accepted spellings (a trailing slash included —
// "/a/b/" and "/a/b" are two keys for one name) and for rejected ones,
// whose errors are Parse's own and never cached.
func TestParseBytesAgreesWithParse(t *testing.T) {
	for _, in := range []string{"/", "/a", "/a/b/", "/a/b", "/prov0/obj12/chunk3", "", "a/b", "no-slash", "/a//b", "//"} {
		want, wantErr := Parse(in)
		for pass := 0; pass < 2; pass++ {
			got, err := ParseBytes([]byte(in))
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("pass %d: ParseBytes(%q) err = %v, Parse err = %v", pass, in, err, wantErr)
			}
			if !got.Equal(want) || got.String() != want.String() || !reflect.DeepEqual(got.Components(), want.Components()) {
				t.Errorf("pass %d: ParseBytes(%q) = %s %v, Parse = %s %v", pass, in, got, got.Components(), want, want.Components())
			}
		}
	}
	in := []byte("/seen/before")
	if _, err := ParseBytes(in); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { ParseBytes(in) }); allocs != 0 { //nolint:errcheck
		t.Errorf("ParseBytes of a seen name allocates %.1f/op, want 0", allocs)
	}
}
