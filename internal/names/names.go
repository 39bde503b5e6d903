// Package names implements hierarchical NDN-style content names.
//
// A name is an ordered sequence of components, printed in URI-like form
// ("/provider0/video7/chunk12"). Names identify content objects, key
// locators, and routable prefixes throughout the TACTIC framework. The
// package also provides the prefix-extraction function N(·) from the
// paper (Protocol 1), which maps a name to its routable provider prefix.
package names

import (
	"errors"
	"fmt"
	"strings"

	"github.com/tactic-icn/tactic/internal/intern"
)

// Errors returned by name parsing and manipulation.
var (
	// ErrEmpty is returned when parsing an empty or root-only name where
	// at least one component is required.
	ErrEmpty = errors.New("names: empty name")
	// ErrMalformed is returned when a name string is not a valid
	// slash-delimited NDN name.
	ErrMalformed = errors.New("names: malformed name")
)

// Name is an immutable hierarchical content name. The zero value is the
// root name "/" with no components.
type Name struct {
	components []string
	// key is the canonical string form, computed once at construction so
	// String/Key on the forwarding hot path never allocate. Every prefix
	// of the component sequence is a prefix of key, so Prefix and Parent
	// share it by slicing.
	key string
}

// makeName builds a Name over validated components, computing the
// canonical key.
func makeName(components []string) Name {
	if len(components) == 0 {
		return Name{}
	}
	var b strings.Builder
	total := 0
	for _, c := range components {
		total += 1 + len(c)
	}
	b.Grow(total)
	for _, c := range components {
		b.WriteByte('/')
		b.WriteString(c)
	}
	return Name{components: components, key: b.String()}
}

// New builds a name from explicit components. Components must be
// non-empty and must not contain '/'.
func New(components ...string) (Name, error) {
	out := make([]string, 0, len(components))
	for _, c := range components {
		if c == "" {
			return Name{}, fmt.Errorf("%w: empty component", ErrMalformed)
		}
		if strings.ContainsRune(c, '/') {
			return Name{}, fmt.Errorf("%w: component %q contains '/'", ErrMalformed, c)
		}
		out = append(out, c)
	}
	return makeName(out), nil
}

// MustNew is New but panics on error. Intended for constants in tests and
// examples where the input is statically known to be valid.
func MustNew(components ...string) Name {
	n, err := New(components...)
	if err != nil {
		panic(err)
	}
	return n
}

// Parse parses a slash-delimited name such as "/prov/obj/chunk3". The
// leading slash is required; a trailing slash is tolerated. Parse("/")
// yields the root name.
func Parse(s string) (Name, error) {
	if s == "" {
		return Name{}, ErrEmpty
	}
	if s[0] != '/' {
		return Name{}, fmt.Errorf("%w: %q does not start with '/'", ErrMalformed, s)
	}
	trimmed := strings.Trim(s, "/")
	if trimmed == "" {
		return Name{}, nil // root
	}
	parts := strings.Split(trimmed, "/")
	for _, p := range parts {
		if p == "" {
			return Name{}, fmt.Errorf("%w: %q has an empty component", ErrMalformed, s)
		}
	}
	return makeName(parts), nil
}

// parsed interns ParseBytes results by their exact input bytes.
var parsed intern.Cache[Name]

// ParseBytes is Parse(string(b)) for names read off the wire: the result
// for input seen before comes from a bounded, process-wide intern table
// (see internal/intern) and allocates nothing. Malformed input is never
// cached, so the error is Parse's every time.
func ParseBytes(b []byte) (Name, error) {
	return parsed.Resolve(b, parseBytes)
}

func parseBytes(b []byte) (Name, error) { return Parse(string(b)) }

// MustParse is Parse but panics on error.
func MustParse(s string) Name {
	n, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return n
}

// String renders the name in URI-like form. The root name renders as
// "/". The result is precomputed at construction, so String is
// allocation-free.
func (n Name) String() string {
	if len(n.components) == 0 {
		return "/"
	}
	return n.key
}

// Len reports the number of components.
func (n Name) Len() int { return len(n.components) }

// Component returns the i-th component. It panics if i is out of range,
// matching slice semantics.
func (n Name) Component(i int) string { return n.components[i] }

// Components returns a copy of the component slice, preserving the
// immutability of the receiver.
func (n Name) Components() []string {
	out := make([]string, len(n.components))
	copy(out, n.components)
	return out
}

// Append returns a new name with the given components appended. The
// receiver is unchanged. Invalid components cause an error.
func (n Name) Append(components ...string) (Name, error) {
	for _, c := range components {
		if c == "" || strings.ContainsRune(c, '/') {
			return Name{}, fmt.Errorf("%w: invalid component %q", ErrMalformed, c)
		}
	}
	out := make([]string, 0, len(n.components)+len(components))
	out = append(out, n.components...)
	out = append(out, components...)
	return makeName(out), nil
}

// MustAppend is Append but panics on error.
func (n Name) MustAppend(components ...string) Name {
	out, err := n.Append(components...)
	if err != nil {
		panic(err)
	}
	return out
}

// Prefix returns the name truncated to its first k components. If k
// exceeds the length, the full name is returned; k <= 0 yields the root.
// The prefix shares the receiver's component slice and canonical key, so
// Prefix never allocates.
func (n Name) Prefix(k int) Name {
	if k <= 0 {
		return Name{}
	}
	if k >= len(n.components) {
		return n
	}
	cut := 0
	for _, c := range n.components[:k] {
		cut += 1 + len(c)
	}
	return Name{components: n.components[:k], key: n.key[:cut]}
}

// Equal reports whether two names have identical components.
func (n Name) Equal(o Name) bool {
	return n.key == o.key
}

// HasPrefix reports whether p is a (non-strict) prefix of n. Every name
// has the root as a prefix.
func (n Name) HasPrefix(p Name) bool {
	if len(p.components) > len(n.components) {
		return false
	}
	for i, c := range p.components {
		if n.components[i] != c {
			return false
		}
	}
	return true
}

// Compare orders names component-wise, shorter-prefix first; it returns
// -1, 0, or +1. The ordering is total and consistent with Equal.
func (n Name) Compare(o Name) int {
	for i := 0; i < len(n.components) && i < len(o.components); i++ {
		if c := strings.Compare(n.components[i], o.components[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(n.components) < len(o.components):
		return -1
	case len(n.components) > len(o.components):
		return 1
	default:
		return 0
	}
}

// ProviderPrefix implements the paper's N(·) prefix-extraction function:
// the first component of a name identifies the provider namespace. For
// the root name it returns the root.
func (n Name) ProviderPrefix() Name { return n.Prefix(1) }

// Key returns the canonical string form, suitable for map keys. It is
// identical to String and exists to make call sites self-documenting.
func (n Name) Key() string { return n.String() }
