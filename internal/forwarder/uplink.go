package forwarder

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/obs"
	"github.com/tactic-icn/tactic/internal/transport"
)

// UplinkConfig configures a managed upstream link (ManageUpstream).
type UplinkConfig struct {
	// Addr is the upstream address to dial.
	Addr string
	// Routes are the prefixes reachable through this uplink; they are
	// (re)installed toward the new face on every attach and detached
	// automatically when the face dies.
	Routes []names.Name
	// Retry shapes the reconnect backoff (Base/Cap/Logf; zero value =
	// package defaults). Its Attempts field is ignored: an uplink retries
	// until it is closed.
	Retry RetryConfig
	// Dial overrides the dialer — tests inject fault-injecting
	// transports (internal/transport/chaos). It receives the full Addr
	// including any scheme prefix; a "udp://" Addr has the returned conn
	// treated as datagram-semantics (one Write = one datagram). Nil
	// dials by scheme: "udp://" opens a batched datagram face, anything
	// else TCP with a 10 s timeout.
	Dial func(addr string) (net.Conn, error)
	// UDP tunes datagram uplinks (MTU, reassembly bounds); ignored for
	// stream schemes.
	UDP transport.UDPOptions
	// SyncPeer registers the uplink's face as a BF-sync peer while it is
	// attached (see Forwarder.AddSyncPeer): neighbor edge routers receive
	// this forwarder's validated-tag Bloom filter through it.
	SyncPeer bool
}

// Uplink is a supervised upstream link: it dials, attaches a face,
// installs the configured routes, and — when the face dies for any
// reason (read error, fatal send error, idle timeout) — detaches,
// backs off with jitter, and reconnects. While the link is down its
// routes are absent from the FIB, so Interests fail fast with no_route
// instead of black-holing into a dead face.
type Uplink struct {
	f   *Forwarder
	cfg UplinkConfig

	connects *obs.Counter // attaches, including reconnects
	downs    *obs.Counter // detaches observed
	up       atomic.Bool

	closed chan struct{}
	once   sync.Once
	wg     sync.WaitGroup

	mu   sync.Mutex
	face ndn.FaceID
}

// ManageUpstream starts supervising an upstream link and returns
// immediately; the first connection attempt happens on the supervisor
// goroutine (use WaitUp to block until attached). The uplink is closed
// by Uplink.Close or, collectively, by Forwarder.Close.
func (f *Forwarder) ManageUpstream(cfg UplinkConfig) (*Uplink, error) {
	if cfg.Addr == "" {
		return nil, errors.New("forwarder: uplink address required")
	}
	cfg.Retry = cfg.Retry.withDefaults()
	u := &Uplink{f: f, cfg: cfg, closed: make(chan struct{}), face: ndn.FaceNone}
	reg := f.m.reg
	addr := obs.L("addr", cfg.Addr)
	u.connects = reg.Counter(obs.MetricUplinkConnects, f.m.role, addr)
	u.downs = reg.Counter(obs.MetricUplinkDown, f.m.role, addr)
	reg.GaugeFunc(obs.MetricUplinkUp, func() float64 {
		if u.up.Load() {
			return 1
		}
		return 0
	}, f.m.role, addr)
	f.mu.Lock()
	select {
	case <-f.closed:
		f.mu.Unlock()
		return nil, errors.New("forwarder: closed")
	default:
	}
	f.uplinks = append(f.uplinks, u)
	f.mu.Unlock()
	u.wg.Add(1)
	go u.run()
	return u, nil
}

// run is the supervision loop: dial, attach, wait for death, repeat.
func (u *Uplink) run() {
	defer u.wg.Done()
	failures := 0
	for {
		select {
		case <-u.closed:
			return
		default:
		}
		face, err := u.dialFace()
		if err != nil {
			failures++
			d := retryDelay(failures, u.cfg.Retry.Base, u.cfg.Retry.Cap, rand.Int63n)
			u.f.logf("uplink %s: dial attempt %d failed: %v (retrying in %s)",
				u.cfg.Addr, failures, err, d.Round(time.Millisecond))
			select {
			case <-u.closed:
				return
			case <-time.After(d):
			}
			continue
		}
		failures = 0

		// Attach with a death hook: detachFace fires it (on its own
		// goroutine) whatever killed the face — peer reset, fatal send
		// error, idle timeout — so every path funnels back here.
		down := make(chan struct{})
		id := u.f.addFace(face, false, func() { close(down) })
		u.mu.Lock()
		u.face = id
		u.mu.Unlock()
		for _, prefix := range u.cfg.Routes {
			u.f.AddRoute(prefix, id)
		}
		if u.cfg.SyncPeer {
			u.f.AddSyncPeer(id)
		}
		u.up.Store(true)
		u.connects.Add(1)
		u.f.ev.Emit(obs.EventUplinkUp, int(id), u.cfg.Addr, 0)
		u.f.logf("uplink %s: attached as face %d (%d routes)", u.cfg.Addr, id, len(u.cfg.Routes))

		select {
		case <-u.closed:
			u.up.Store(false)
			if u.cfg.SyncPeer {
				u.f.RemoveSyncPeer(id)
			}
			u.f.removeFace(id)
			return
		case <-down:
			u.up.Store(false)
			u.downs.Add(1)
			u.f.ev.Emit(obs.EventUplinkDown, int(id), u.cfg.Addr, 0)
			if u.cfg.SyncPeer {
				u.f.RemoveSyncPeer(id)
			}
			u.mu.Lock()
			u.face = ndn.FaceNone
			u.mu.Unlock()
			u.f.logf("uplink %s: face %d down, reconnecting", u.cfg.Addr, id)
		}
	}
}

// dialFace establishes one upstream face by scheme: a custom dialer's
// conn is framed as a stream or wrapped as a datagram face depending on
// the Addr scheme; the default path dials TCP or opens a batched UDP
// face. Datagram uplinks "connect" instantly — their death (and hence
// this redial loop) is driven by idle timeouts plus keepalives.
func (u *Uplink) dialFace() (transport.Face, error) {
	network, hostport := transport.SplitScheme(u.cfg.Addr)
	if u.cfg.Dial != nil {
		raw, err := u.cfg.Dial(u.cfg.Addr)
		if err != nil {
			return nil, err
		}
		if network == "udp" {
			return transport.NewDatagramConn(raw, u.cfg.UDP), nil
		}
		return transport.New(raw), nil
	}
	if network == "udp" {
		return transport.DialUDP(hostport, u.cfg.UDP)
	}
	raw, err := net.DialTimeout(network, hostport, 10*time.Second)
	if err != nil {
		return nil, err
	}
	return transport.New(raw), nil
}

// Up reports whether the uplink currently has a live face.
func (u *Uplink) Up() bool { return u.up.Load() }

// Face returns the current face, or ndn.FaceNone while down.
func (u *Uplink) Face() ndn.FaceID {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.face
}

// WaitUp blocks until the uplink attaches, the timeout lapses, or the
// uplink closes, reporting whether it is up.
func (u *Uplink) WaitUp(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for !u.up.Load() {
		if !time.Now().Before(deadline) {
			return false
		}
		select {
		case <-u.closed:
			return u.up.Load()
		case <-time.After(5 * time.Millisecond):
		}
	}
	return true
}

// Close stops supervising: the current face (if any) is removed and no
// reconnection follows. Idempotent; blocks until the supervisor exits.
func (u *Uplink) Close() {
	u.once.Do(func() { close(u.closed) })
	u.wg.Wait()
}
