// Package chaos wraps net.Conn with seeded, deterministic fault
// injection for testing the live stack's failure handling: writes can
// be dropped, duplicated, delayed, truncated (then the connection
// killed, modelling a crash mid-send), or turned into a connection
// reset. The same seed and call sequence always produces the same fault
// schedule, so chaos soaks are reproducible.
//
// Faults are injected per Write call. internal/transport hands a Write
// whole frames only, so a fault hits the whole frames of one flush: one
// NDN packet at light load — a dropped Write is a lost Interest or Data,
// matching the simulator's per-packet loss model
// (internal/sim.LinkSpec.LossProb) — and a burst of packets under load,
// when a stream face batches its writes. Stream framing survives either
// way.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tactic-icn/tactic/internal/transport"
)

// ErrInjectedReset is the error surfaced by a Write chosen for a
// connection reset (the underlying connection is closed first).
var ErrInjectedReset = errors.New("chaos: injected connection reset")

// ErrInjectedTruncation is the error surfaced by a Write chosen for
// truncation: half the buffer is written, then the connection is
// closed, modelling a peer crashing mid-frame.
var ErrInjectedTruncation = errors.New("chaos: injected truncated write")

// Config sets per-write fault probabilities. Probabilities are
// evaluated in the field order below from a single roll, so
// Drop+Dup+Delay+Trunc+Reset should not exceed 1. The zero Config
// injects nothing.
type Config struct {
	// Seed drives the fault schedule (0 = time-seeded, not
	// reproducible).
	Seed int64
	// Drop is the probability a write silently vanishes.
	Drop float64
	// Dup is the probability a write is sent twice.
	Dup float64
	// Delay is the probability a write stalls for a uniform duration in
	// (0, MaxDelay] before proceeding.
	Delay float64
	// MaxDelay bounds an injected stall (default 10ms when Delay > 0).
	MaxDelay time.Duration
	// Trunc is the probability a write sends half its bytes and then
	// kills the connection.
	Trunc float64
	// Reset is the probability a write closes the connection and fails.
	Reset float64
	// Reorder is the probability a write is held back and re-emitted
	// after 1..MaxReorderDepth later writes have passed it — the
	// UDP-native failure mode (packets racing different paths). Only
	// meaningful on datagram conns: reordering bytes within a stream
	// would corrupt its framing, which TCP itself never does.
	Reorder float64
	// MaxReorderDepth bounds how many writes may overtake a held one
	// (default 3 when Reorder > 0). A held write with no successors is
	// effectively dropped, as a last in-flight packet can be.
	MaxReorderDepth int
}

// Stats counts injected faults on one connection.
type Stats struct {
	// Writes counts Write calls (faulted or not).
	Writes uint64
	// Drops, Dups, Delays, Truncs, Resets, Reorders count injected
	// faults.
	Drops, Dups, Delays, Truncs, Resets, Reorders uint64
}

// Conn is a net.Conn with fault injection on the write path. Reads pass
// through untouched (injecting on one peer's writes already covers the
// other's reads).
type Conn struct {
	net.Conn
	cfg Config

	mu   sync.Mutex // guards rng and held
	rng  *rand.Rand
	held []heldWrite // reorder queue: writes waiting to be overtaken

	writes, drops, dups, delays, truncs, resets, reorders atomic.Uint64
}

// heldWrite is one reordered write: emitted after countdown more
// transmitted writes pass it.
type heldWrite struct {
	data      []byte
	countdown int
}

// Wrap adds fault injection to a connection.
func Wrap(c net.Conn, cfg Config) *Conn {
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 10 * time.Millisecond
	}
	if cfg.MaxReorderDepth <= 0 {
		cfg.MaxReorderDepth = 3
	}
	return &Conn{Conn: c, cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// Stats snapshots the connection's fault counters.
func (c *Conn) Stats() Stats {
	return Stats{
		Writes: c.writes.Load(),
		Drops:  c.drops.Load(), Dups: c.dups.Load(), Delays: c.delays.Load(),
		Truncs: c.truncs.Load(), Resets: c.resets.Load(), Reorders: c.reorders.Load(),
	}
}

// action is one scheduled fault.
type action int

const (
	actPass action = iota
	actDrop
	actDup
	actDelay
	actTrunc
	actReset
	actReorder
)

// roll consumes one random draw and picks this write's fault; for
// reorders it also draws the displacement.
func (c *Conn) roll() (action, time.Duration, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.rng.Float64()
	switch cum := 0.0; {
	case p < cum+c.cfg.Drop:
		return actDrop, 0, 0
	case p < cum+c.cfg.Drop+c.cfg.Dup:
		return actDup, 0, 0
	case p < cum+c.cfg.Drop+c.cfg.Dup+c.cfg.Delay:
		return actDelay, time.Duration(c.rng.Int63n(int64(c.cfg.MaxDelay))) + 1, 0
	case p < cum+c.cfg.Drop+c.cfg.Dup+c.cfg.Delay+c.cfg.Trunc:
		return actTrunc, 0, 0
	case p < cum+c.cfg.Drop+c.cfg.Dup+c.cfg.Delay+c.cfg.Trunc+c.cfg.Reset:
		return actReset, 0, 0
	case p < cum+c.cfg.Drop+c.cfg.Dup+c.cfg.Delay+c.cfg.Trunc+c.cfg.Reset+c.cfg.Reorder:
		return actReorder, 0, 1 + c.rng.Intn(c.cfg.MaxReorderDepth)
	}
	return actPass, 0, 0
}

// Write injects the scheduled fault, then forwards to the wrapped
// connection. Every transmitted write also advances the reorder queue:
// held writes whose displacement has been overtaken are emitted after
// it, fault-free (a packet is only reordered once).
func (c *Conn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	act, delay, disp := c.roll()
	switch act {
	case actDrop:
		c.drops.Add(1)
		c.flushHeld(1)     // a drop still overtakes earlier held writes
		return len(b), nil // lost on the wire; the sender can't tell
	case actDup:
		c.dups.Add(1)
		if n, err := c.Conn.Write(b); err != nil {
			return n, err
		}
		n, err := c.Conn.Write(b)
		c.flushHeld(1)
		return n, err
	case actDelay:
		c.delays.Add(1)
		time.Sleep(delay)
	case actTrunc:
		c.truncs.Add(1)
		c.Conn.Write(b[:len(b)/2]) //nolint:errcheck // the kill below decides the outcome
		c.Conn.Close()
		return len(b) / 2, ErrInjectedTruncation
	case actReset:
		c.resets.Add(1)
		c.Conn.Close()
		return 0, ErrInjectedReset
	case actReorder:
		c.reorders.Add(1)
		c.flushHeld(1) // this write event overtakes earlier held ones
		c.mu.Lock()
		c.held = append(c.held, heldWrite{data: append([]byte(nil), b...), countdown: disp})
		c.mu.Unlock()
		return len(b), nil // emitted later, after disp passing writes
	}
	n, err := c.Conn.Write(b)
	if err == nil {
		c.flushHeld(1)
	}
	return n, err
}

// flushHeld credits subsequent write events (transmitted, dropped, or
// themselves held) against the reorder queue and emits every held write
// whose displacement is spent. Crediting every event — not just
// transmitted writes — guarantees the queue drains as long as the
// sender keeps writing anything, e.g. trailing keepalives.
func (c *Conn) flushHeld(passed int) {
	c.mu.Lock()
	var due [][]byte
	kept := c.held[:0]
	for _, h := range c.held {
		h.countdown -= passed
		if h.countdown <= 0 {
			due = append(due, h.data)
		} else {
			kept = append(kept, h)
		}
	}
	c.held = kept
	c.mu.Unlock()
	for _, data := range due {
		c.Conn.Write(data) //nolint:errcheck // best-effort: a late datagram may be lost
	}
}

// Dialer returns a dial function whose connections are fault-injected,
// each with a distinct deterministic seed — shaped to drop into
// forwarder.UplinkConfig.Dial. The address may carry a scheme
// ("udp://host:port" dials a connected datagram socket); bare
// addresses dial TCP.
func Dialer(cfg Config) func(addr string) (net.Conn, error) {
	var n atomic.Int64
	return func(addr string) (net.Conn, error) {
		network, hostport := transport.SplitScheme(addr)
		c, err := net.DialTimeout(network, hostport, 5*time.Second)
		if err != nil {
			return nil, err
		}
		dcfg := cfg
		if dcfg.Seed != 0 {
			dcfg.Seed += n.Add(1)
		}
		return Wrap(c, dcfg), nil
	}
}

// ParseSpec parses a compact fault spec of comma-separated key=value
// pairs: drop, dup, delay, trunc, reset, reorder (probabilities in
// [0,1]), maxdelay (a duration), reorderdepth (a positive int), and
// seed (int64). Example:
//
//	drop=0.05,dup=0.01,delay=0.1,maxdelay=20ms,reset=0.001,reorder=0.05,seed=7
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	if strings.TrimSpace(spec) == "" {
		return cfg, nil
	}
	total := 0.0
	for _, part := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return cfg, fmt.Errorf("chaos: bad spec element %q (want key=value)", part)
		}
		switch key {
		case "drop", "dup", "delay", "trunc", "reset", "reorder":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return cfg, fmt.Errorf("chaos: bad probability %q for %s", val, key)
			}
			total += p
			switch key {
			case "drop":
				cfg.Drop = p
			case "dup":
				cfg.Dup = p
			case "delay":
				cfg.Delay = p
			case "trunc":
				cfg.Trunc = p
			case "reset":
				cfg.Reset = p
			case "reorder":
				cfg.Reorder = p
			}
		case "reorderdepth":
			d, err := strconv.Atoi(val)
			if err != nil || d < 1 {
				return cfg, fmt.Errorf("chaos: bad reorderdepth %q", val)
			}
			cfg.MaxReorderDepth = d
		case "maxdelay":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return cfg, fmt.Errorf("chaos: bad maxdelay %q", val)
			}
			cfg.MaxDelay = d
		case "seed":
			s, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return cfg, fmt.Errorf("chaos: bad seed %q", val)
			}
			cfg.Seed = s
		default:
			return cfg, fmt.Errorf("chaos: unknown spec key %q", key)
		}
	}
	if total > 1 {
		return cfg, fmt.Errorf("chaos: fault probabilities sum to %g (> 1)", total)
	}
	return cfg, nil
}
