package oracle

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/pki"
)

// material is the concrete crypto realisation of a scenario for one
// plane: providers with registered signing keys, published contents,
// and issued tags. Each plane builds its own (the planes place tag
// expiries on different clocks — the sim plane lives on virtual time
// from sim.Epoch, the live plane on wall time), but both derive from
// the same scenario ground truth, so a tag's validity class is
// identical everywhere.
type material struct {
	registry  *pki.Registry
	providers []*core.Provider
	contents  []*core.Content // aligned with Scenario.Contents
	tags      []*core.Tag     // aligned with Scenario.Tags
	// revoked is the scenario's revocation set: the IDs of every
	// TagRevoked tag, which each plane pushes as the whole set, at
	// version 1, to all of its routers before the first request.
	revoked []core.TagID
}

// buildMaterial realises a scenario's tags and contents. expiryOf maps
// a tag spec to its T_e on the plane's clock; apOf maps an edge
// position to the access path the plane's first-hop entity stamps
// (AP identity in the sim plane, edge-router identity in the live one).
func buildMaterial(scn *Scenario, info *topoInfo, expiryOf func(TagSpec) time.Time, apOf func(edgePos int) core.AccessPath) (*material, error) {
	registry := pki.NewRegistry()
	rng := rand.New(rand.NewSource(scn.Seed ^ 0x7ac71c))
	m := &material{registry: registry}

	// Providers: a registered signer each, plus a rogue signer bearing
	// the same locator but an unregistered key — its signatures fail
	// verification, realising TagForged.
	signers := make([]*pki.FastKeyPair, scn.Topo.Providers)
	rogues := make([]*pki.FastKeyPair, scn.Topo.Providers)
	for p := 0; p < scn.Topo.Providers; p++ {
		locator := info.provPrefix(p).MustAppend("KEY")
		signer, err := pki.GenerateFast(rng, locator)
		if err != nil {
			return nil, err
		}
		rogue, err := pki.GenerateFast(rng, locator)
		if err != nil {
			return nil, err
		}
		if err := registry.Register(locator, signer.Public()); err != nil {
			return nil, err
		}
		provider, err := core.NewProvider(info.provPrefix(p), signer, time.Hour, rng)
		if err != nil {
			return nil, err
		}
		signers[p], rogues[p] = signer, rogue
		m.providers = append(m.providers, provider)
	}

	for ci := range scn.Contents {
		c := scn.Contents[ci]
		content, err := m.providers[c.Provider].Publish(info.contentName(scn, ci), c.Level, []byte(fmt.Sprintf("payload-%d", ci)))
		if err != nil {
			return nil, err
		}
		m.contents = append(m.contents, content)
	}

	for ti := range scn.Tags {
		spec := scn.Tags[ti]
		signer := pki.Signer(signers[spec.Provider])
		if spec.Kind == TagForged || spec.Kind == TagFlood {
			signer = rogues[spec.Provider]
		}
		ap := apOf(spec.HomeEdge)
		if spec.Kind == TagRoaming {
			ap = core.AccessPathAny
		}
		clientKey := info.userKey(spec.User)
		if spec.Kind == TagFlood {
			// Salt the serial into the key locator: every flood tag then
			// has a distinct encoding, so each burst Interest presents a
			// never-cached tag and forces a fresh signature check.
			clientKey = clientKey.MustAppend(fmt.Sprintf("flood%d", spec.Serial))
		} else if spec.Serial != 0 {
			// Same for any other deliberately-serialled tag: two specs that
			// agree on (user, provider, level, path, expiry) would otherwise
			// materialize to the same tag identity, so revoking one would
			// revoke both (hand-built scenarios, e.g. the golden matrix,
			// need them distinct).
			clientKey = clientKey.MustAppend(fmt.Sprintf("s%d", spec.Serial))
		}
		tag, err := core.IssueTag(signer, clientKey, spec.Level, ap, expiryOf(spec))
		if err != nil {
			return nil, err
		}
		// Warm the lazy encoding cache: the live plane shares tags
		// across concurrent per-request goroutines.
		tag.Encode()
		m.tags = append(m.tags, tag)
		if spec.Kind == TagRevoked {
			m.revoked = append(m.revoked, tag.ID())
		}
	}
	return m, nil
}
