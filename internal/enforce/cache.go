package enforce

import (
	"sync"
	"sync/atomic"

	"github.com/tactic-icn/tactic/internal/bloom"
	"github.com/tactic-icn/tactic/internal/core"
)

// cache is the epoch-rotating validation cache shared by both backends:
// a Bloom filter plus the previous-epoch fallback, the paper's
// saturation auto-reset, and the request-driven reset cadence of the
// fidelity mode, gated by the revocation set. TACTIC keys it by tag;
// IBAC keys it by (token, name).
type cache struct {
	bf  *bloom.Filter
	cfg core.Config
	rev *core.RevocationSet

	// prev holds the previous epoch's filter after a rotation: lookups
	// that miss the (freshly cleared) current filter fall back to it, so
	// a rotation does not force the whole edge population back through
	// signature verification at once. nil until the first rotation.
	prev atomic.Pointer[bloom.Filter]
	// epoch is the cache epoch, advanced by rotate.
	epoch atomic.Uint64

	// requestResetThreshold is the lookups-per-reset budget in
	// RequestDrivenReset mode: the number of elements the filter can
	// hold before its FPP reaches the maximum.
	requestResetThreshold uint64
	// resetMu serialises the request-driven reset check so concurrent
	// lookups crossing the threshold trigger exactly one reset.
	resetMu sync.Mutex
}

func (c *cache) init(bf *bloom.Filter, cfg core.Config) {
	c.bf = bf
	c.cfg = cfg
	if cfg.RequestDrivenReset {
		c.requestResetThreshold = bloom.CapacityAtFPP(bf.Bits(), bf.Hashes(), bf.MaxFPP())
		if c.requestResetThreshold == 0 {
			c.requestResetThreshold = 1
		}
	}
}

// revoked is the revocation check both backends run before any cache
// lookup, so a revoked tag is denied even while its bits are still set
// in the filter (the filter caches "signature verified", which stays
// true after revocation; epoch rotation ages those bits out).
func (c *cache) revoked(t *core.Tag) bool {
	if c.cfg.DisableRevocationCheck {
		return false
	}
	return c.rev.Contains(t.ID())
}

// contains performs the cache lookup honouring the DisableBloomFilter
// ablation, the previous-epoch fallback (migrating hits forward), and
// the request-driven reset cadence.
func (c *cache) contains(key []byte) bool {
	if c.cfg.DisableBloomFilter {
		return false
	}
	hit := c.bf.Contains(key)
	if !hit {
		// Previous-epoch fallback: an entry validated before the last
		// rotation is still vouched for; migrate it into the current
		// filter so it survives the next rotation too.
		if prev := c.prev.Load(); prev != nil && prev.Contains(key) {
			c.bf.Add(key)
			hit = true
		}
	}
	if c.cfg.RequestDrivenReset && !c.cfg.DisableAutoReset &&
		c.bf.RequestsSinceReset() >= c.requestResetThreshold {
		c.resetMu.Lock()
		if c.bf.RequestsSinceReset() >= c.requestResetThreshold {
			c.bf.Reset()
		}
		c.resetMu.Unlock()
	}
	return hit
}

// insert records a validated entry, applying the paper's auto-reset
// policy: when the filter's FPP reaches its maximum, the filter is
// cleared before the insert so the newly validated entry survives.
func (c *cache) insert(key []byte) {
	if c.cfg.DisableBloomFilter {
		return
	}
	if !c.cfg.DisableAutoReset && c.bf.Saturated() {
		c.resetMu.Lock()
		if c.bf.Saturated() {
			c.bf.Reset()
		}
		c.resetMu.Unlock()
	}
	c.bf.Add(key)
}

// OnEpochRotate advances the cache to a new epoch: the current filter's
// contents become the previous-epoch fallback and the current filter is
// cleared, so bits accumulated before the rotation — notably the stale
// positives a revocation storm leaves behind, which the saturation reset
// clears only once an insert finds the filter past its maximum — age out
// after one more rotation instead of lingering. Epochs must advance; a
// stale or duplicate epoch is ignored (reported false), which also
// terminates control-plane rotation floods.
func (c *cache) OnEpochRotate(epoch uint64) bool {
	if c.cfg.DisableBloomFilter {
		return false
	}
	c.resetMu.Lock()
	defer c.resetMu.Unlock()
	if epoch <= c.epoch.Load() {
		return false
	}
	c.prev.Store(c.bf.Clone())
	c.bf.Reset()
	c.epoch.Store(epoch)
	return true
}

// Epoch returns the current cache epoch.
func (c *cache) Epoch() uint64 { return c.epoch.Load() }

// Bloom exposes the cache's current filter.
func (c *cache) Bloom() *bloom.Filter { return c.bf }
