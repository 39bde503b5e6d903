// Command tacticd runs a real-time TACTIC node on live TCP or UDP faces:
// an edge or core router that enforces tag-based access control, or a
// provider's origin (-role producer) that publishes files as chunked,
// encrypted, signed objects, enrolls clients and issues their tags. The
// origin is a content router like any other (Protocol 3 over its own
// catalogue), so every role shares the telemetry, tracing and admin
// endpoints below.
//
//	# the origin for /prov0, with keys from cmd/tactickey
//	tacticd -listen :7000 -role producer -id prov0 -prefix /prov0 \
//	        -key prov0.key -ttl 30s -publish report=./report.pdf -level 2 \
//	        -enroll alice.pub=3
//
//	# a core router forwarding /prov0 toward the origin
//	tacticd -listen :6363 -role core -id core-0 \
//	        -trust prov0.pub -route /prov0=127.0.0.1:7000
//
//	# the same over UDP datagram faces (batched I/O, MTU fragmentation)
//	tacticd -listen udp://:6363 -role core -id core-0 \
//	        -trust prov0.pub -route /prov0=udp://127.0.0.1:7000
//
//	# an edge router running Protocol 2 for its clients
//	tacticd -listen :6362 -role edge -id edge-0 \
//	        -trust prov0.pub -route /prov0=127.0.0.1:6363
//
//	# the same edge also advertising its validated-tag BF to a neighbor
//	tacticd -listen :6362 -role edge -id edge-0 \
//	        -trust prov0.pub -route /prov0=127.0.0.1:6363 \
//	        -bf-sync-interval 5s -sync-peer 127.0.0.1:6364
//
// Clients connect to the edge's listen address (see cmd/tacticget); the
// edge's -id is the access-path entity its clients' tags bind to.
// Revocation pushes (cmd/tacticissue push) flood from any router to the
// whole deployment over the face graph.
package main

import (
	"context"
	"crypto/rand"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/forwarder"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/obs"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/transport"
	"github.com/tactic-icn/tactic/internal/transport/chaos"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	// A signal closes the listener, which ends run with a graceful drain.
	err := run(os.Args[1:], func(ln transport.FaceListener) { context.AfterFunc(ctx, func() { ln.Close() }) })
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tacticd:", err)
		os.Exit(1)
	}
}

// multiFlag collects repeated string flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// Flags that configure one side only: the origin's, and a router's (trusted
// keys, uplinks, sync peers, a bounded store, upstream fault injection) that
// an origin — its own key trusted, nothing upstream, all kept — cannot use.
var (
	originFlags = []string{"prefix", "key", "ttl", "level", "chunk", "publish", "enroll"}
	routerFlags = []string{"trust", "route", "sync-peer", "bf-sync-interval", "cs", "chaos"}
)

// node is what the daemon drives of a router or an origin.
type node interface {
	ServeFaces(transport.FaceListener) error
	Status() forwarder.Status
	Close() error
}

// run serves until its listener closes, then drains the node; listening,
// when non-nil, is handed that listener once it is up, so a caller can
// stop the daemon.
func run(args []string, listening func(transport.FaceListener)) error {
	fs := flag.NewFlagSet("tacticd", flag.ContinueOnError)
	listen := fs.String("listen", ":6363", "downstream listen address; prefix udp:// for datagram faces (default TCP)")
	role := fs.String("role", "core", "node role: edge|core|producer")
	schemeName := fs.String("scheme", "tactic", "enforcement backend: tactic|ibac")
	id := fs.String("id", "", "node identity (edge IDs bind client access paths)")
	bfSize := fs.Int("bf", 500, "Bloom-filter capacity")
	bfFPP := fs.Float64("fpp", 1e-4, "Bloom-filter max FPP")
	csSize := fs.Int("cs", 4096, "content-store capacity (chunks)")
	admin := fs.String("admin", "", "admin HTTP address for /metrics, /statusz, /debug/pprof (empty = disabled)")
	traceOut := fs.String("trace", "", "per-Interest trace output: file path or - for stderr (empty = disabled)")
	traceSample := fs.Float64("trace-sample", 1.0, "fraction of local packets traced, 0..1 (wire-sampled packets are always traced)")
	traceRing := fs.Int("trace-ring", 0, "in-memory flight recorder capacity in spans, served at /tracez on -admin (0 = disabled)")
	traceFlush := fs.String("trace-flush", "", "on graceful shutdown, dump the -trace-ring flight recorder as JSONL to this file (empty = disabled)")
	eventRing := fs.Int("events", 256, "typed event-log ring capacity, served at /eventz on -admin and bridged to stderr (0 = disabled)")
	writeTimeout := fs.Duration("write-timeout", forwarder.DefaultWriteTimeout, "per-frame write deadline on every face (0 = none)")
	idleTimeout := fs.Duration("idle-timeout", 0, "recycle a face after this long without a frame (0 = never)")
	keepalive := fs.Duration("keepalive", 0, "send keepalive frames on every face at this interval (0 = none); set peers' -idle-timeout to ~3x this")
	mtu := fs.Int("mtu", 0, "datagram face MTU in bytes: frames larger than this are fragmented on udp:// faces (0 = default 1400)")
	chaosSpec := fs.String("chaos", "", "fault-inject upstream links, e.g. drop=0.05,delay=0.1,maxdelay=20ms,seed=1 (testing only)")
	verifyWorkers := fs.Int("verify-workers", 0, "signature-verification worker goroutines (0 = default)")
	verifyBudget := fs.Int("verify-budget", 0, "per-face cap on parked+in-flight verifications; over-budget Interests are shed with Overload NACKs (0 = default)")
	bfSync := fs.Duration("bf-sync-interval", 0, "advertise the validated-tag BF to -sync-peer neighbors at this period (0 = disabled)")
	prefixStr := fs.String("prefix", "", "producer: provider name prefix, e.g. /prov0")
	keyPath := fs.String("key", "", "producer: provider private key PEM (tactickey gen)")
	ttl := fs.Duration("ttl", 30*time.Second, "producer: tag validity period (the revocation window)")
	level := fs.Int("level", 2, "producer: access level for published objects (0 = public)")
	chunk := fs.Int("chunk", 1024, "producer: chunk size in bytes")
	var trusts, routes, syncPeers, publishes, enrolls multiFlag
	fs.Var(&trusts, "trust", "provider public-key PEM file (repeatable)")
	fs.Var(&routes, "route", "prefix=upstreamAddr (repeatable)")
	fs.Var(&syncPeers, "sync-peer", "neighbor edge address to send BF adverts to (repeatable; needs -bf-sync-interval)")
	fs.Var(&publishes, "publish", "producer: object=file to publish (repeatable)")
	fs.Var(&enrolls, "enroll", "producer: clientPub.pem=level to enroll (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("-id is required")
	}
	scheme, err := core.ParseScheme(*schemeName)
	if err != nil {
		return err
	}
	// A -role value is its role's metric label.
	var r forwarder.Role
	for _, known := range []forwarder.Role{forwarder.RoleEdge, forwarder.RoleCore, forwarder.RoleOrigin} {
		if known.String() == *role {
			r = known
		}
	}
	if r == 0 {
		return fmt.Errorf("unknown role %q (want edge|core|producer)", *role)
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	origin := r == forwarder.RoleOrigin
	misplaced, want := originFlags, "needs -role producer"
	if origin {
		misplaced, want = routerFlags, "has no meaning with -role producer"
	}
	for _, name := range misplaced {
		if set[name] {
			return fmt.Errorf("-%s %s", name, want)
		}
	}
	if origin && (*prefixStr == "" || *keyPath == "") {
		return fmt.Errorf("-role producer requires -prefix and -key")
	}
	if len(syncPeers) > 0 && *bfSync <= 0 {
		return fmt.Errorf("-sync-peer requires -bf-sync-interval > 0")
	}

	registry := pki.NewRegistry()
	for _, path := range trusts {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		locator, pub, err := pki.UnmarshalPublic(data)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if err := registry.Register(locator, pub); err != nil {
			return err
		}
		log.Printf("trusted %s (%s)", locator, pki.FingerprintHex(pub))
	}

	reg := obs.NewRegistry()
	var traceW io.Writer
	if *traceOut != "" {
		traceW = os.Stderr
		if *traceOut != "-" {
			f, err := os.Create(*traceOut)
			if err != nil {
				return err
			}
			defer f.Close()
			traceW = f
		}
	}
	var rec *obs.Recorder
	if *traceRing > 0 {
		rec = obs.NewRecorder(*traceRing)
	}
	if *traceFlush != "" && rec == nil {
		return fmt.Errorf("-trace-flush requires -trace-ring > 0")
	}
	tracer := obs.NewTracerRecorder(*id, *traceSample, traceW, rec)
	if tracer != nil {
		tracer.SetRole(*role)
		log.Printf("tracing %g of packets (output %q, flight recorder %d spans)", *traceSample, *traceOut, rec.Cap())
	}

	// The typed event log: face churn, uplink redials, revocations,
	// epoch rotations, shed bursts. Ring-buffered for /eventz and
	// bridged to stderr through slog so `journalctl` alone tells the
	// operator story.
	var ev *obs.Events
	if *eventRing > 0 {
		ev = obs.NewEvents(*id, *eventRing)
		ev.SetLogger(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	}

	cfg := forwarder.Config{
		ID:                *id,
		Role:              r,
		Registry:          registry,
		Tactic:            core.Config{Scheme: scheme},
		BFCapacity:        *bfSize,
		BFMaxFPP:          *bfFPP,
		CSCapacity:        *csSize,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
		KeepaliveInterval: *keepalive,
		BFSyncInterval:    *bfSync,
		VerifyWorkers:     *verifyWorkers,
		VerifyBudget:      *verifyBudget,
		Logf:              log.Printf,
		Obs:               reg,
		Events:            ev,
		Tracer:            tracer,
	}
	udpOpts := transport.UDPOptions{MTU: *mtu}
	var nd node
	if origin {
		nd, err = newOrigin(cfg, *prefixStr, *keyPath, *ttl, core.AccessLevel(*level), *chunk, publishes, enrolls)
	} else {
		nd, err = newRouter(cfg, *chaosSpec, udpOpts, routes, syncPeers)
	}
	if err != nil {
		return err
	}
	defer nd.Close()

	if *admin != "" {
		mux := obs.NewAdminMux(reg, func() any { return nd.Status() })
		obs.AttachTracez(mux, tracer)
		if ev != nil {
			obs.AttachEventz(mux, ev)
		}
		obs.AttachHealthz(mux, obs.NewHealth(reg, *id, obs.HealthConfig{}, ev))
		aln, err := obs.Serve(*admin, mux)
		if err != nil {
			return err
		}
		defer aln.Close()
		log.Printf("admin endpoint on http://%s (/metrics /statusz /healthz /eventz /tracez /debug/pprof)", aln.Addr())
	}

	ln, err := transport.ListenFace(*listen, udpOpts)
	if err != nil {
		return err
	}
	if ep, ok := ln.(*transport.UDPEndpoint); ok {
		ep.Instrument(reg, obs.L("role", *role))
	}
	network, _ := transport.SplitScheme(*listen)
	log.Printf("tacticd %s (%s) listening on %s/%s", *id, *role, network, ln.Addr())
	if listening != nil {
		listening(ln)
	}
	if err := nd.ServeFaces(ln); !errors.Is(err, net.ErrClosed) {
		return err
	}

	// Graceful shutdown (the listener closed, on a signal): Close drains
	// the verification pool first — in-flight verifications deliver
	// their verdicts and every still-parked Interest is answered with an
	// Overload NACK while its face can still carry it — then detaches
	// uplinks and closes the remaining faces.
	log.Printf("listener closed; draining faces")
	nd.Close()
	st := nd.Status().Counters
	log.Printf("drained: %d Interests handled lifetime, %d parked verifications flushed with NACKs",
		st.Interests, st.VerifyFlushed)

	// Flush the flight recorder last, after every face goroutine has
	// finished its spans, so the dump holds the final moments of the
	// process — the spans a crash-looping deployment needs most.
	if *traceFlush != "" {
		f, err := os.Create(*traceFlush)
		if err != nil {
			return err
		}
		n, werr := rec.WriteJSONL(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("-trace-flush: %w", werr)
		}
		log.Printf("flight recorder: %d spans flushed to %s", n, *traceFlush)
	}
	log.Printf("shutdown complete")
	return nil
}

// newRouter starts an edge or core router and its managed links.
func newRouter(cfg forwarder.Config, chaosSpec string, udpOpts transport.UDPOptions, routes, syncPeers []string) (fwd *forwarder.Forwarder, err error) {
	if fwd, err = forwarder.New(cfg); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			fwd.Close()
		}
	}()
	// Optional upstream fault injection for soak/demo runs.
	var dial func(addr string) (net.Conn, error)
	if chaosSpec != "" {
		ccfg, err := chaos.ParseSpec(chaosSpec)
		if err != nil {
			return nil, fmt.Errorf("-chaos: %w", err)
		}
		dial = chaos.Dialer(ccfg)
		log.Printf("chaos on upstream links: %s", chaosSpec)
	}

	// Each upstream becomes a managed link: it dials with jittered
	// backoff, reinstalls its routes on every (re)attach, and detaches
	// them while down — the daemon starts even when upstreams are not up
	// yet, and survives them restarting.
	byAddr := make(map[string][]names.Name)
	var addrs []string
	for _, route := range routes {
		prefixStr, addr, ok := strings.Cut(route, "=")
		if !ok {
			return nil, fmt.Errorf("bad -route %q (want prefix=addr)", route)
		}
		prefix, err := names.Parse(prefixStr)
		if err != nil {
			return nil, err
		}
		if _, seen := byAddr[addr]; !seen {
			addrs = append(addrs, addr)
		}
		byAddr[addr] = append(byAddr[addr], prefix)
	}
	for _, addr := range addrs {
		if _, err := fwd.ManageUpstream(forwarder.UplinkConfig{Addr: addr, Routes: byAddr[addr], Dial: dial, UDP: udpOpts}); err != nil {
			return nil, err
		}
		log.Printf("uplink %s: %d routes managed", addr, len(byAddr[addr]))
	}

	// Sync peers are routeless managed links to neighbor edges: the
	// syncLoop sends the validated-tag BF there so a client roaming
	// to that neighbor hits a warm filter (see -bf-sync-interval).
	for _, addr := range syncPeers {
		if _, err := fwd.ManageUpstream(forwarder.UplinkConfig{Addr: addr, Dial: dial, UDP: udpOpts, SyncPeer: true}); err != nil {
			return nil, err
		}
		log.Printf("sync peer %s: BF adverts every %s", addr, cfg.BFSyncInterval)
	}
	return fwd, nil
}

// newOrigin starts a provider's origin: it trusts its own key, enrolls
// the -enroll clients and publishes the -publish files.
func newOrigin(cfg forwarder.Config, prefixStr, keyPath string, ttl time.Duration, level core.AccessLevel, chunk int, publishes, enrolls []string) (producer *forwarder.Producer, err error) {
	prefix, err := names.Parse(prefixStr)
	if err != nil {
		return nil, err
	}
	keyPEM, err := os.ReadFile(keyPath)
	if err != nil {
		return nil, err
	}
	signer, err := pki.UnmarshalECDSAPrivate(keyPEM, rand.Reader)
	if err != nil {
		return nil, err
	}
	provider, err := core.NewProvider(prefix, signer, ttl, rand.Reader)
	if err != nil {
		return nil, err
	}
	if err := cfg.Registry.Register(signer.Locator(), signer.Public()); err != nil {
		return nil, err
	}
	for _, e := range enrolls {
		pubPath, levelStr, ok := strings.Cut(e, "=")
		if !ok {
			return nil, fmt.Errorf("bad -enroll %q (want pub.pem=level)", e)
		}
		lvl, err := strconv.Atoi(levelStr)
		if err != nil || lvl < 0 {
			return nil, fmt.Errorf("bad enrollment level %q", levelStr)
		}
		data, err := os.ReadFile(pubPath)
		if err != nil {
			return nil, err
		}
		locator, pub, err := pki.UnmarshalPublic(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pubPath, err)
		}
		provider.Enroll(locator, pub, core.AccessLevel(lvl))
		log.Printf("enrolled %s at level %d", locator, lvl)
	}
	if producer, err = forwarder.NewProducerWithConfig(provider, cfg); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			producer.Close()
		}
	}()
	for _, p := range publishes {
		object, file, ok := strings.Cut(p, "=")
		if !ok {
			return nil, fmt.Errorf("bad -publish %q (want object=file)", p)
		}
		payload, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		chunks, err := producer.PublishObject(object, level, payload, chunk)
		if err != nil {
			return nil, err
		}
		log.Printf("published %s/%s: %d bytes in %d chunks (AL %d)", prefix, object, len(payload), chunks, level)
	}
	log.Printf("origin %s: tag TTL %s", prefix, ttl)
	return producer, nil
}
