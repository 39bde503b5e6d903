package oracle

import (
	"testing"

	"github.com/tactic-icn/tactic/internal/core"
)

// TestGeneratorMixesSlots: the generator gives no request a (step, name)
// slot of its own. A forged, low-level or tagless request for private
// content lands beside a valid one in most scenarios, so the live plane
// aggregates them in one PIT entry and conformance proves that neither
// answer depends on which of them was the primary.
func TestGeneratorMixesSlots(t *testing.T) {
	mixed := 0
	for seed := int64(1); seed <= 200; seed++ {
		scn, err := GenerateScenario(seed)
		if err != nil {
			t.Fatal(err)
		}
		valid, denied := make(map[[2]int]bool), make(map[[2]int]bool)
		for _, r := range scn.Requests {
			c := scn.Contents[r.Content]
			slot := [2]int{r.Step, r.Content}
			if c.Level == core.Public {
				continue
			}
			if r.Tag < 0 {
				denied[slot] = true
				continue
			}
			tag := scn.Tags[r.Tag]
			switch {
			case tag.Provider != c.Provider:
			case tag.Kind == TagForged || !tag.Level.Satisfies(c.Level):
				denied[slot] = true
			case tag.Kind == TagValid:
				valid[slot] = true
			}
		}
		for slot := range denied {
			if valid[slot] {
				mixed++
				break
			}
		}
	}
	if mixed < 100 {
		t.Errorf("%d of seeds 1-200 hold a slot with a valid and a forged, low-level or tagless request for private content, want at least 100", mixed)
	}
	t.Logf("%d of seeds 1-200 hold a mixed slot", mixed)
}
