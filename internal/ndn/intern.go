package ndn

import (
	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/intern"
	"github.com/tactic-icn/tactic/internal/names"
)

// Decode-side interning for the TLV elements whose parse dominates the
// decode stage (two name parses and three copies per tag): DecodeInterest
// and DecodeData resolve them here. The mechanism and its bound live in
// internal/intern. Content names, which cross the wire in URI form inside
// the Content element, go through the same mechanism behind
// names.ParseBytes.
var (
	// tagIntern maps a tag's exact wire encoding (including signature) to
	// its decoded form. Keys cover every byte, so two distinct tags can
	// never collide.
	tagIntern intern.Cache[*core.Tag]
	// nameIntern maps a Name element's value bytes to the parsed name.
	nameIntern intern.Cache[names.Name]
)
