package main

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	mrand "math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/forwarder"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/obs"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/transport"
)

const (
	edgeID       = "edge-0"
	coreID       = "core-0"
	accessLevel  = core.AccessLevel(2)
	tagTTL       = time.Hour
	writeTimeout = 10 * time.Second // tacticd's -write-timeout default
	eventRing    = 256              // tacticd's -events default
	recorderCap  = 1 << 14          // spans kept per node in a traced rig

	// tacticd's -bf, -fpp and -cs defaults.
	bfCapacity = 500
	bfMaxFPP   = 1e-4
	csCapacity = 4096
)

// world is everything provisioned before a node boots: the provider, its
// published object and the enrolled, registered subscribers.
type world struct {
	prefix    names.Name
	registry  *pki.Registry
	producer  *forwarder.Producer
	payload   []byte       // plaintext of the whole object
	names     []names.Name // chunk names, by chunk number
	nameIndex map[string]int
	subs      []*core.Client
	tags      []*core.Tag
	// digests holds SHA-256 of each chunk's published ciphertext. An entry
	// is learned from the first reply for the chunk that decrypts, under a
	// subscriber's content key, to the plaintext that was published; every
	// later reply is checked against it.
	digests [][sha256.Size]byte
	known   []bool
}

// provision runs the CPU-bound part of set-up: provider key, 8192 signed
// and encrypted chunks, 2048 enrolled and registered subscribers.
func provision(seed int64) (*world, error) {
	w := &world{
		prefix:    names.MustNew("prov0"),
		registry:  pki.NewRegistry(),
		payload:   make([]byte, chunkCount*chunkSize),
		nameIndex: make(map[string]int, chunkCount),
		digests:   make([][sha256.Size]byte, chunkCount),
		known:     make([]bool, chunkCount),
	}
	signer, err := pki.GenerateECDSA(rand.Reader, w.prefix.MustAppend("KEY", "1"))
	if err != nil {
		return nil, err
	}
	if err := w.registry.Register(signer.Locator(), signer.Public()); err != nil {
		return nil, err
	}
	provider, err := core.NewProvider(w.prefix, signer, tagTTL, rand.Reader)
	if err != nil {
		return nil, err
	}
	if w.producer, err = forwarder.NewProducer(provider, w.registry, nil); err != nil {
		return nil, err
	}
	mrand.New(mrand.NewSource(seed)).Read(w.payload) //nolint:errcheck // never fails
	chunks, err := w.producer.PublishObject("obj", accessLevel, w.payload, chunkSize)
	if err != nil {
		return nil, err
	}
	if chunks != chunkCount {
		return nil, fmt.Errorf("published %d chunks, want %d", chunks, chunkCount)
	}
	base := w.prefix.MustAppend("obj")
	for i := 0; i < chunkCount; i++ {
		n := base.MustAppend("chunk" + strconv.Itoa(i))
		w.names = append(w.names, n)
		w.nameIndex[n.Key()] = i
	}

	ap := core.EmptyAccessPath.Accumulate(edgeID)
	now := time.Now()
	for i := 0; i < subscriberCount; i++ {
		key, err := pki.GenerateECDSA(rand.Reader, names.MustNew("users", "u"+strconv.Itoa(i), "KEY", "1"))
		if err != nil {
			return nil, err
		}
		sub, err := core.NewClient(key, rand.Reader)
		if err != nil {
			return nil, err
		}
		provider.Enroll(key.Locator(), key.Public(), accessLevel)
		req, err := sub.NewRegistrationRequest(ap)
		if err != nil {
			return nil, err
		}
		resp, err := provider.Register(req, now)
		if err != nil {
			return nil, err
		}
		if err := sub.StoreRegistration(w.prefix, resp); err != nil {
			return nil, err
		}
		tag := sub.TagFor(w.prefix, ap, now)
		if tag == nil {
			return nil, fmt.Errorf("subscriber %d holds no tag after registration", i)
		}
		tag.Encode() // fill the encoding cache before the tag is shared across goroutines
		w.subs = append(w.subs, sub)
		w.tags = append(w.tags, tag)
	}
	return w, nil
}

// plaintext returns the published plaintext of one chunk.
func (w *world) plaintext(chunk int) []byte {
	return w.payload[chunk*chunkSize : (chunk+1)*chunkSize]
}

// learn authenticates the first copy of a chunk by decrypting it with a
// subscriber's content key (AES-GCM bound to the chunk name) and comparing
// it with what was published, then records the ciphertext digest.
func (w *world) learn(chunk int, c *core.Content) error {
	plain, err := w.subs[0].Decrypt(w.prefix, c)
	if err != nil {
		return err
	}
	if !bytes.Equal(plain, w.plaintext(chunk)) {
		return fmt.Errorf("chunk %d decrypts to something that was not published", chunk)
	}
	w.digests[chunk] = sha256.Sum256(c.Payload)
	w.known[chunk] = true
	return nil
}

// forge returns a well-formed tag nobody issued: subscriber sub's tag with
// another client key, under the original signature.
func (w *world) forge(sub int, serial uint64) *core.Tag {
	t := *w.tags[sub]
	forged := &core.Tag{
		ProviderKey: t.ProviderKey,
		Level:       t.Level,
		ClientKey:   names.MustNew("users", "forged"+strconv.FormatUint(serial, 10), "KEY", "1"),
		AccessPath:  t.AccessPath,
		Expiry:      t.Expiry,
		Signature:   t.Signature,
	}
	forged.Encode()
	return forged
}

// rig is a provisioned world with the three nodes booted over loopback
// sockets and the load connections dialled.
type rig struct {
	w        *world
	edge     *forwarder.Forwarder
	core     *forwarder.Forwarder
	edgeReg  *obs.Registry
	edgeRec  *obs.Recorder // nil unless traced
	coreRec  *obs.Recorder
	prodRec  *obs.Recorder
	lns      []transport.FaceListener
	faces    []transport.Face
	serving  sync.WaitGroup
	closeOne sync.Once
}

// nodeConfig is the configuration tacticd ships: default verify workers
// and budget, no write coalescing, EdgeValidateOnMiss off, registry and
// event ring attached.
func nodeConfig(id string, role forwarder.Role, registry *pki.Registry, reg *obs.Registry, tracer *obs.Tracer) forwarder.Config {
	return forwarder.Config{
		ID:           id,
		Role:         role,
		Registry:     registry,
		BFCapacity:   bfCapacity,
		BFMaxFPP:     bfMaxFPP,
		CSCapacity:   csCapacity,
		WriteTimeout: writeTimeout,
		Obs:          reg,
		Events:       obs.NewEvents(id, eventRing),
		Tracer:       tracer,
	}
}

// nodeTracer returns a tracer that records every packet into a ring, the
// tracing an operator would switch on, or nil when the rig is untraced.
func nodeTracer(traced bool, node, role string) (*obs.Tracer, *obs.Recorder) {
	if !traced {
		return nil, nil
	}
	rec := obs.NewRecorder(recorderCap)
	t := obs.NewTracerRecorder(node, 1.0, nil, rec)
	t.SetRole(role)
	return t, rec
}

// listen opens a loopback listener and serves it with accept.
func (r *rig) listen(scheme string, role string, reg *obs.Registry, serve func(transport.FaceListener) error) (string, error) {
	ln, err := transport.ListenFace(scheme+"://127.0.0.1:0", transport.UDPOptions{})
	if err != nil {
		return "", err
	}
	if ep, ok := ln.(*transport.UDPEndpoint); ok && reg != nil {
		ep.Instrument(reg, obs.L("role", role))
	}
	r.lns = append(r.lns, ln)
	r.serving.Add(1)
	go func() {
		defer r.serving.Done()
		serve(ln) //nolint:errcheck // returns when close() closes the listener
	}()
	return scheme + "://" + ln.Addr().String(), nil
}

// boot starts producer, core and edge over scheme and dials conns load
// connections to the edge.
func boot(w *world, scheme string, conns int, traced bool) (*rig, error) {
	r := &rig{w: w, edgeReg: obs.NewRegistry()}
	fail := func(err error) (*rig, error) {
		r.close()
		return nil, err
	}
	prodTracer, prodRec := nodeTracer(traced, "prov0", "producer")
	w.producer.SetTracer(prodTracer)
	r.prodRec = prodRec
	prodAddr, err := r.listen(scheme, "producer", nil, w.producer.ServeFaces)
	if err != nil {
		return fail(err)
	}

	coreReg := obs.NewRegistry()
	coreTracer, coreRec := nodeTracer(traced, coreID, "core")
	r.coreRec = coreRec
	if r.core, err = forwarder.New(nodeConfig(coreID, forwarder.RoleCore, w.registry, coreReg, coreTracer)); err != nil {
		return fail(err)
	}
	up, err := r.core.DialUpstream(prodAddr)
	if err != nil {
		return fail(err)
	}
	r.core.AddRoute(w.prefix, up)
	coreAddr, err := r.listen(scheme, "core", coreReg, r.core.ServeFaces)
	if err != nil {
		return fail(err)
	}

	edgeTracer, edgeRec := nodeTracer(traced, edgeID, "edge")
	r.edgeRec = edgeRec
	if r.edge, err = forwarder.New(nodeConfig(edgeID, forwarder.RoleEdge, w.registry, r.edgeReg, edgeTracer)); err != nil {
		return fail(err)
	}
	if up, err = r.edge.DialUpstream(coreAddr); err != nil {
		return fail(err)
	}
	r.edge.AddRoute(w.prefix, up)
	edgeAddr, err := r.listen(scheme, "edge", r.edgeReg, r.edge.ServeFaces)
	if err != nil {
		return fail(err)
	}

	for c := 0; c < conns; c++ {
		face, err := transport.DialFace(edgeAddr, transport.UDPOptions{})
		if err != nil {
			return fail(err)
		}
		face.SetIdleTimeout(opTimeout)
		r.faces = append(r.faces, face)
	}
	return r, nil
}

// close stops the load connections, then the nodes from the edge inwards,
// and waits for every goroutine the rig started.
func (r *rig) close() {
	r.closeOne.Do(func() {
		for _, f := range r.faces {
			f.Close()
		}
		if r.edge != nil {
			r.edge.Close()
		}
		if r.core != nil {
			r.core.Close()
		}
		for _, ln := range r.lns {
			ln.Close()
		}
		r.serving.Wait()
		r.w.producer.Close()
	})
}

// fragments sums the fragment datagrams seen by every UDP endpoint and
// load connection of the rig (zero on stream transports).
func (r *rig) fragments() uint64 {
	var total uint64
	for _, ln := range r.lns {
		if ep, ok := ln.(*transport.UDPEndpoint); ok {
			in, out := ep.Fragments()
			total += in + out
		}
	}
	for _, f := range r.faces {
		if df, ok := f.(*transport.DatagramFace); ok {
			in, out := df.Fragments()
			total += in + out
		}
	}
	return total
}

// setUp is the whole timed recipe: provision, boot, dial, and the
// workload's warm step. It returns the load generator of a rig ready to
// drive, and how long the recipe took.
func setUp(wl workload, seed int64, traced bool) (*loadgen, time.Duration, error) {
	start := time.Now()
	w, err := provision(seed)
	if err != nil {
		return nil, 0, fmt.Errorf("provision: %w", err)
	}
	r, err := boot(w, wl.scheme, connections(), traced)
	if err != nil {
		return nil, 0, fmt.Errorf("boot: %w", err)
	}
	lg := newLoadgen(r, newPlan(wl, seed, len(r.faces)))
	if err := lg.warm(); err != nil {
		r.close()
		return nil, 0, fmt.Errorf("warm step: %w", err)
	}
	return lg, time.Since(start), nil
}

// connections is the number of load connections: one per processor, as
// GOMAXPROCS is, held inside the range the schedules are sized for.
func connections() int {
	return min(max(runtime.NumCPU(), 2), 8)
}
