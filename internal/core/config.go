package core

import "fmt"

// Scheme selects which enforcement backend a router's decision engine
// runs (see internal/enforce). The zero value is the paper's tag-based
// scheme, so existing configurations are unchanged.
type Scheme uint8

const (
	// SchemeTACTIC is the paper's design: provider-signed tags cached in
	// a per-router Bloom filter, with the flag-F collaborative
	// re-validation of Protocols 2-4.
	SchemeTACTIC Scheme = iota
	// SchemeIBAC is Interest-based access control (Ghali et al.,
	// PAPERS.md): per-(authorization token, content name) checks with no
	// access-path binding and no downstream vouching — every router
	// authorizes each name it serves on first sight and caches the
	// (token, name) pair. Implemented as a second backend behind the
	// internal/enforce seam for the head-to-head in EXPERIMENTS.md.
	SchemeIBAC
)

// String returns the flag-friendly name of the scheme.
func (s Scheme) String() string {
	switch s {
	case SchemeTACTIC:
		return "tactic"
	case SchemeIBAC:
		return "ibac"
	default:
		return fmt.Sprintf("scheme(%d)", uint8(s))
	}
}

// ParseScheme parses a -scheme flag value.
func ParseScheme(s string) (Scheme, error) {
	switch s {
	case "", "tactic":
		return SchemeTACTIC, nil
	case "ibac":
		return SchemeIBAC, nil
	default:
		return SchemeTACTIC, fmt.Errorf("unknown enforcement scheme %q (want tactic or ibac)", s)
	}
}

// Config selects the enforcement scheme and TACTIC features on a
// router. The zero value is the paper's full design, with aggregated
// requests held to the level check (see PaperAggregates); each flag
// disables one mechanism for the ablation studies catalogued in
// DESIGN.md §5.
type Config struct {
	// Scheme selects the enforcement backend (TACTIC by default). The
	// ablation flags below apply to the TACTIC backend; under other
	// schemes only DisableBloomFilter (no validation cache),
	// DisablePrecheck, DisableRevocationCheck, DisableAutoReset and
	// RequestDrivenReset retain their meaning.
	Scheme Scheme
	// DisableBloomFilter makes the router verify every signature instead
	// of caching validations (ablation "NoBloomFilter").
	DisableBloomFilter bool
	// DisableCollaboration makes the router ignore the flag F set by
	// downstream routers, treating every request as unvalidated
	// (ablation "NoCollaboration").
	DisableCollaboration bool
	// DisablePrecheck skips Protocol 1, at the checkpoints and on
	// aggregated records, letting expired or mismatched tags reach the
	// Bloom-filter/signature stage (ablation "NoPrecheck").
	DisablePrecheck bool
	// DisableAutoReset stops the router from resetting a saturated Bloom
	// filter, letting its FPP grow without bound (ablation "NoReset").
	DisableAutoReset bool
	// RequestDrivenReset reproduces the reset cadence visible in the
	// paper's evaluation: filters reset after absorbing as many
	// *requests* as the filter can hold at its maximum FPP, rather than
	// on unique-tag saturation. The paper's Fig. 8 (a reset every
	// ~50-250 requests, insensitive to tag expiry) and Table V (tens of
	// thousands of edge resets per run) are only consistent with
	// request-driven saturation; the default unique-tag policy resets
	// orders of magnitude less often under the same workload. See
	// DESIGN.md ("paper-fidelity mode").
	RequestDrivenReset bool
	// PaperAggregates reproduces the paper's pseudocode for aggregated
	// PIT records under TACTIC: Protocol 2 lines 22-23 and Protocol 4
	// lines 11-26 validate an aggregated tag by signature and freshness
	// only, so a *valid* tag with insufficient access level (threat (d))
	// that aggregates behind an authorized request for the same content
	// receives it — Protocol 1's AL_D <= AL_u check runs only at content
	// routers, which aggregated requests never reach (EXPERIMENTS.md
	// Finding 1). By default every aggregated record also meets the
	// content half of Protocol 1 against the arriving Data's metadata,
	// so aggregation never changes a verdict; paper-fidelity mode sets
	// this flag so that Table IV reproduces the leak. IBAC re-checks
	// aggregates whatever it says.
	PaperAggregates bool
	// DisableRevocationCheck skips the pre-BF revocation-set lookup, so
	// an explicitly revoked tag is honoured until its T_e (ablation
	// "NoRevocation" — TACTIC's original expiry-only behaviour). The
	// conformance oracle also injects this flag into one plane at a time
	// to prove the differential harness catches a forgotten revocation
	// pre-check.
	DisableRevocationCheck bool
	// DisableAdmission turns off the per-face verification admission
	// budget (the bounded verify pool's shed policy), letting one face
	// park unboundedly many Interests awaiting signature verification
	// (ablation "NoAdmission"). The conformance oracle injects this flag
	// into one plane at a time to prove the differential harness catches
	// a forgotten cap ("forgot to cap one path").
	DisableAdmission bool
	// EdgeValidateOnMiss makes the edge router verify a tag's signature
	// (and insert it on success) when the Bloom filter misses at
	// Interest time, per §4.B's router description ("a router verifies
	// a received tag's signature and inserts the tag to its BF if the
	// signature is valid") and §8.B's observation that "after each BF
	// reset, the corresponding edge router needs to validate tags and
	// insert them into its BF". Protocol 2's pseudocode instead defers
	// validation upstream via F = 0; both behaviours are provided and
	// the fidelity mode uses this one. The IBAC backend always validates
	// at the edge regardless of this flag — that is the scheme's design.
	EdgeValidateOnMiss bool
}
