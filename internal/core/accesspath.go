package core

import "hash/fnv"

// AccessPath is AP_u, the paper's location-binding feature (§4.A):
// "Client u's access path (AP_u) is the XOR of the hashed identity of
// all network entities between u and r_E (excluding r_E). Each
// intermediate entity, between u and her corresponding r_E, adds its
// identity to the rolling hash."
//
// An access path accumulates as a request travels from the client to its
// edge router: each on-path entity (wireless access point, relay) XORs
// the FNV-64a hash of its identity into the value. The edge router
// compares the accumulated value in the request against AP_u recorded in
// the tag; a mismatch means the tag is being used from a different
// location (a shared or replayed tag) and the request is dropped with a
// NACK (Protocol 2, lines 1-2).
//
// XOR makes accumulation order-independent and incremental — properties
// the property tests pin down.
type AccessPath uint64

// EmptyAccessPath is the accumulator's initial value (a client directly
// wired to its edge router traverses no intermediate entities).
const EmptyAccessPath AccessPath = 0

// AccessPathAny is the roaming wildcard: a tag issued with this value
// matches any accumulated request path, so one tag stays valid as its
// holder hands over between edges (the paper's deferred mobility
// scenario). The value is signed like any AP_u, so it cannot be forged
// onto an existing tag; the trade-off is that AP-based location binding
// (threat (e): shared or replayed tags) is disabled for the tag, which
// is why roaming tags are a deliberate operator grant (Provider.Issue)
// rather than the default. All-ones cannot collide with an accumulated
// path in practice: accumulation XORs 64-bit FNV hashes, and no
// realistic entity set XORs to 2^64-1.
const AccessPathAny AccessPath = ^AccessPath(0)

// HashEntityID hashes a network entity identity for access-path
// accumulation.
func HashEntityID(id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id)) //nolint:errcheck // hash writes never error
	return h.Sum64()
}

// Accumulate folds one on-path entity into the access path.
func (ap AccessPath) Accumulate(entityID string) AccessPath {
	return ap ^ AccessPath(HashEntityID(entityID))
}

// AccessPathOf computes the access path for an explicit entity list (the
// entities strictly between the client and its edge router, in any
// order).
func AccessPathOf(entityIDs ...string) AccessPath {
	ap := EmptyAccessPath
	for _, id := range entityIDs {
		ap = ap.Accumulate(id)
	}
	return ap
}

// Matches reports whether an accumulated request path equals the tag's
// recorded path. A tag carrying the AccessPathAny wildcard matches any
// request path (the receiver is the tag's recorded path).
func (ap AccessPath) Matches(other AccessPath) bool {
	return ap == other || ap == AccessPathAny
}
