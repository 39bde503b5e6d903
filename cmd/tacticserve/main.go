// Command tacticserve runs a TACTIC content provider origin: it
// publishes files as chunked, encrypted, signed objects, enrolls
// clients, and answers registration and content Interests.
//
//	tactickey gen -locator /prov0/KEY/1 -out prov0
//	tactickey gen -locator /users/alice/KEY/1 -out alice
//	tacticserve -listen :7000 -prefix /prov0 -key prov0.key -ttl 30s \
//	            -publish report=./report.pdf -level 2 \
//	            -enroll alice.pub=3
package main

import (
	"crypto/rand"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/forwarder"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/obs"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/transport"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "tacticserve:", err)
		os.Exit(1)
	}
}

// multiFlag collects repeated string flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// run serves until its listener closes; listening, when non-nil, is
// handed that listener once it is up, so a caller can stop the server.
func run(args []string, listening func(transport.FaceListener)) error {
	fs := flag.NewFlagSet("tacticserve", flag.ContinueOnError)
	listen := fs.String("listen", ":7000", "listen address; prefix udp:// for datagram faces (default TCP)")
	admin := fs.String("admin", "", "admin HTTP address for /metrics, /statusz, /debug/pprof (empty = disabled)")
	prefixStr := fs.String("prefix", "", "provider name prefix, e.g. /prov0")
	keyPath := fs.String("key", "", "provider private key PEM (tactickey gen)")
	ttl := fs.Duration("ttl", 30*time.Second, "tag validity period (the revocation window)")
	level := fs.Int("level", 2, "access level for published objects (0 = public)")
	chunk := fs.Int("chunk", 1024, "chunk size in bytes")
	traceOut := fs.String("trace", "", "per-Interest trace output: file path or - for stderr (empty = disabled)")
	traceSample := fs.Float64("trace-sample", 1.0, "fraction of local packets traced, 0..1 (wire-sampled packets are always traced)")
	traceRing := fs.Int("trace-ring", 0, "in-memory flight recorder capacity in spans, served at /tracez on -admin (0 = disabled)")
	var publishes, enrolls multiFlag
	fs.Var(&publishes, "publish", "object=file to publish (repeatable)")
	fs.Var(&enrolls, "enroll", "clientPub.pem=level to enroll (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *prefixStr == "" || *keyPath == "" {
		return fmt.Errorf("-prefix and -key are required")
	}
	prefix, err := names.Parse(*prefixStr)
	if err != nil {
		return err
	}
	keyPEM, err := os.ReadFile(*keyPath)
	if err != nil {
		return err
	}
	signer, err := pki.UnmarshalECDSAPrivate(keyPEM, rand.Reader)
	if err != nil {
		return err
	}
	provider, err := core.NewProvider(prefix, signer, *ttl, rand.Reader)
	if err != nil {
		return err
	}

	registry := pki.NewRegistry()
	if err := registry.Register(signer.Locator(), signer.Public()); err != nil {
		return err
	}
	producer, err := forwarder.NewProducer(provider, registry, log.Printf)
	if err != nil {
		return err
	}
	defer producer.Close()

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
	tracer := obs.NewTracerRecorder(prefix.String(), *traceSample, traceW, rec)
	if tracer != nil {
		tracer.SetRole("producer")
		producer.SetTracer(tracer)
		log.Printf("tracing enabled (sample %g, ring %d)", *traceSample, *traceRing)
	}

	var reg *obs.Registry
	var ev *obs.Events
	if *admin != "" {
		reg = obs.NewRegistry()
		producer.Instrument(reg)
		ev = obs.NewEvents(prefix.String(), 256)
		ev.SetLogger(slog.New(slog.NewTextHandler(os.Stderr, nil)))
		mux := obs.NewAdminMux(reg, func() any { return producer.Stats() })
		obs.AttachTracez(mux, tracer)
		obs.AttachEventz(mux, ev)
		obs.AttachHealthz(mux, obs.NewHealth(reg, prefix.String(), obs.HealthConfig{}, ev))
		aln, err := obs.Serve(*admin, mux)
		if err != nil {
			return err
		}
		defer aln.Close()
		log.Printf("admin endpoint on http://%s (/metrics /statusz /healthz /eventz /tracez /debug/pprof)", aln.Addr())
	}

	for _, e := range enrolls {
		pubPath, levelStr, ok := strings.Cut(e, "=")
		if !ok {
			return fmt.Errorf("bad -enroll %q (want pub.pem=level)", e)
		}
		lvl, err := strconv.Atoi(levelStr)
		if err != nil || lvl < 0 {
			return fmt.Errorf("bad enrollment level %q", levelStr)
		}
		data, err := os.ReadFile(pubPath)
		if err != nil {
			return err
		}
		locator, pub, err := pki.UnmarshalPublic(data)
		if err != nil {
			return fmt.Errorf("%s: %w", pubPath, err)
		}
		provider.Enroll(locator, pub, core.AccessLevel(lvl))
		log.Printf("enrolled %s at level %d", locator, lvl)
	}

	for _, p := range publishes {
		object, file, ok := strings.Cut(p, "=")
		if !ok {
			return fmt.Errorf("bad -publish %q (want object=file)", p)
		}
		payload, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		chunks, err := producer.PublishObject(object, core.AccessLevel(*level), payload, *chunk)
		if err != nil {
			return err
		}
		log.Printf("published %s/%s: %d bytes in %d chunks (AL %d)", prefix, object, len(payload), chunks, *level)
	}

	ln, err := transport.ListenFace(*listen, transport.UDPOptions{})
	if err != nil {
		return err
	}
	if ep, ok := ln.(*transport.UDPEndpoint); ok && reg != nil {
		ep.Instrument(reg, obs.L("role", "producer"))
	}
	network, _ := transport.SplitScheme(*listen)
	log.Printf("tacticserve %s listening on %s/%s (tag TTL %s)", prefix, network, ln.Addr(), *ttl)
	if listening != nil {
		listening(ln)
	}
	return producer.ServeFaces(ln)
}
