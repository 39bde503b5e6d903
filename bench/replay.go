package main

import (
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	mrand "math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/tactic-icn/tactic/internal/bloom"
	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/enforce"
	"github.com/tactic-icn/tactic/internal/forwarder"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/obs"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/transport"
)

// replaySample is how many of the workload's own packets each layer
// function is replayed on.
const replaySample = 10_000

// streamWindow is the number of Interests kept in flight by the stream
// measurement of a face pair.
const streamWindow = 64

// sample is a seeded slice of the workload's own traffic: the Interests
// the schedule begins with and replies captured during the traced phases.
type sample struct {
	w         *world
	self      *connSchedule // a fresh copy of the workload's schedule
	interests []*ndn.Interest
	iFrames   [][]byte
	tags      []*core.Tag // the genuine tag behind each Interest
	forged    []*core.Tag
	data      []*ndn.Data // content-bearing replies
	dFrames   [][]byte
	distinct  []*core.Content // one content per distinct name in data
}

func newSample(w *world, wl workload, seed int64, captured []*ndn.Data) (*sample, error) {
	s := &sample{w: w, self: newPlan(wl, seed, 1).conns[0]}
	p := newPlan(wl, seed, connections())
	for i := 0; i < replaySample; i++ {
		req := p.conns[i%len(p.conns)].next()
		tag := w.tags[req.tag]
		s.tags = append(s.tags, tag)
		s.forged = append(s.forged, w.forge(req.tag, 1<<40|uint64(i)))
		if req.forged {
			tag = s.forged[i]
		}
		in := &ndn.Interest{Name: w.names[req.name], Kind: ndn.KindContent, Nonce: uint64(i) + 1, Tag: tag}
		frame, err := ndn.EncodeInterest(in)
		if err != nil {
			return nil, err
		}
		s.interests = append(s.interests, in)
		s.iFrames = append(s.iFrames, frame)
	}
	seen := make(map[string]bool)
	for _, d := range captured {
		if d.Nack || d.Content == nil {
			continue
		}
		frame, err := ndn.EncodeData(d)
		if err != nil {
			return nil, err
		}
		s.data = append(s.data, d)
		s.dFrames = append(s.dFrames, frame)
		if k := d.Name.Key(); !seen[k] {
			seen[k] = true
			s.distinct = append(s.distinct, d.Content)
		}
		if len(s.data) == replaySample {
			break
		}
	}
	if len(s.distinct) < 2*numCSShards {
		return nil, fmt.Errorf("captured only %d distinct contents", len(s.distinct))
	}
	return s, nil
}

// numCSShards is the content store's shard count: its smallest useful
// capacity, one entry per shard.
const numCSShards = 16

func (s *sample) datum(i int) *ndn.Data { return s.data[i%len(s.data)] }

// nsBatch is how many consecutive calls one sample of a nanosecond-scale
// function covers. A clock reading costs tens of nanoseconds, so a call
// timed alone that is shorter than that reads as zero.
const nsBatch = 50

// replayer times calls single-threaded, records a span per sample, and
// reports medians net of the timer's own cost.
type replayer struct {
	log      *spanLog
	op       uint64
	overhead float64 // ns an empty span measures
	err      error   // the first timing that did not resolve
}

func newReplayer(log *spanLog) *replayer {
	rp := &replayer{log: log}
	rp.overhead = rp.median("replay.timer_overhead", replaySample, 1, func(int) {})
	rp.err = nil // the calibration itself measures nothing but the timer
	return rp
}

// median runs fn n times in samples of batch consecutive calls, one span
// per sample, and returns the median duration of one call in nanoseconds,
// net of the timer overhead. A result that is not positive means the
// batch is too small for the clock and is kept in rp.err.
func (rp *replayer) median(name string, n, batch int, fn func(i int)) float64 {
	d := make([]float64, 0, n/batch)
	for i := 0; i+batch <= n; i += batch {
		start := time.Now()
		for j := i; j < i+batch; j++ {
			fn(j)
		}
		end := time.Now()
		rp.op++
		rp.log.add(0, rp.op, name, start, end)
		d = append(d, float64(end.Sub(start))/float64(batch))
	}
	ns := median(d) - rp.overhead/float64(batch)
	if ns <= 0 && rp.err == nil {
		rp.err = fmt.Errorf("%s: %d calls take no longer than reading the clock", name, batch)
	}
	return ns
}

// allocsPer is the mean number of heap allocations of one fn call.
func allocsPer(n int, fn func(i int)) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// facePair is two faces connected over a loopback socket: the dialling
// end and the accepted end.
type facePair struct {
	dialled, accepted transport.Face
	ln                transport.FaceListener
}

func newFacePair(scheme string) (*facePair, error) {
	ln, err := transport.ListenFace(scheme+"://127.0.0.1:0", transport.UDPOptions{})
	if err != nil {
		return nil, err
	}
	p := &facePair{ln: ln}
	if p.dialled, err = transport.DialFace(scheme+"://"+ln.Addr().String(), transport.UDPOptions{}); err != nil {
		ln.Close()
		return nil, err
	}
	// A datagram listener creates the face on the first datagram.
	if err = p.dialled.SendKeepalive(); err == nil {
		p.accepted, err = ln.Accept()
	}
	if err != nil {
		p.dialled.Close()
		ln.Close()
		return nil, err
	}
	p.dialled.SetIdleTimeout(opTimeout)
	return p, nil
}

func (p *facePair) close() {
	p.dialled.Close()
	p.accepted.Close()
	p.ln.Close()
}

// echo answers every Interest on face with reply(interest) until the face
// closes.
func echo(face transport.Face, reply func(*ndn.Interest) *ndn.Data, done *sync.WaitGroup) {
	defer done.Done()
	for {
		pkt, err := face.Receive()
		if err != nil {
			return
		}
		if pkt.Interest != nil {
			if err := face.SendData(reply(pkt.Interest)); err != nil {
				return
			}
		}
	}
}

// wire measures a bare face pair with an echo peer and no forwarder: the
// median round trip of a workload-sized Interest out and Data back with
// one in flight, then, with streamWindow in flight, the exchanges per
// second the pair carries and the process CPU one exchange costs (both
// ends: two encodes, two sends, two receives, two decodes).
func (rp *replayer) wire(scheme string, s *sample) (rttMicros, framesPerSecond, cpuMicros float64, err error) {
	pair, err := newFacePair(scheme)
	if err != nil {
		return 0, 0, 0, err
	}
	client := pair.dialled
	var done sync.WaitGroup
	done.Add(1)
	next := 0
	go echo(pair.accepted, func(*ndn.Interest) *ndn.Data { next++; return s.datum(next) }, &done)
	defer func() {
		pair.close()
		done.Wait()
	}()

	roundTrip := func(i int) {
		if err == nil {
			if err = client.SendInterest(s.interests[i%len(s.interests)]); err == nil {
				_, err = client.Receive()
			}
		}
	}
	for i := 0; i < replaySample/10; i++ { // warm the sockets and pools
		roundTrip(i)
	}
	rtt := rp.median("transport."+scheme+"_pingpong", replaySample, 1, roundTrip)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("%s ping-pong: %w", scheme, err)
	}

	const exchanges = 4 * replaySample
	start, cpu := time.Now(), processCPU()
	for sent, got := 0, 0; got < exchanges; got++ {
		for ; sent < exchanges && sent-got < streamWindow; sent++ {
			if err := client.SendInterest(s.interests[sent%len(s.interests)]); err != nil {
				return 0, 0, 0, fmt.Errorf("%s stream: %w", scheme, err)
			}
		}
		if _, err := client.Receive(); err != nil {
			return 0, 0, 0, fmt.Errorf("%s stream: %w", scheme, err)
		}
	}
	cpu = processCPU() - cpu
	return rtt / 1e3, perSecond(exchanges, time.Since(start)), float64(cpu.Microseconds()) / exchanges, nil
}

// hop measures one forwarder between two face pairs: the median round
// trip of an Interest answered from its content store (hit) and of one it
// forwards to an echoing upstream (miss). They are reported as measured,
// to be read beside the bare ping-pong of the same transport: subtracting
// one from the other does not isolate the forwarder, because three parties
// on two cores wake each other faster than two do (the difference came
// out negative on this host).
func (rp *replayer) hop(scheme string, s *sample) (hitMicros, missMicros float64, err error) {
	byName := make(map[string]*core.Content, len(s.distinct))
	for _, c := range s.distinct {
		byName[c.Meta.Name.Key()] = c
	}
	reply := func(i *ndn.Interest) *ndn.Data {
		return &ndn.Data{Name: i.Name, Content: byName[i.Name.Key()], Tag: i.Tag, Flag: i.Flag}
	}
	// The sampled names under a few genuine tags that fit the filter, so
	// the hop measured is the hit path whatever the workload's tag mix.
	var tags []*core.Tag
	for _, tag := range s.tags {
		if !slices.Contains(tags, tag) {
			if tags = append(tags, tag); len(tags) == hotTags {
				break
			}
		}
	}
	// As many distinct names as the hit workloads use: they fit the store.
	var interests []*ndn.Interest
	for _, c := range s.distinct[:min(len(s.distinct), hotNames)] {
		interests = append(interests, &ndn.Interest{Name: c.Meta.Name, Kind: ndn.KindContent, Tag: tags[len(interests)%len(tags)]})
	}
	measure := func(name string, csCapacity int) (float64, error) {
		cfg := nodeConfig(edgeID, forwarder.RoleEdge, s.w.registry, obs.NewRegistry(), nil)
		cfg.CSCapacity = csCapacity
		fwd, err := forwarder.New(cfg)
		if err != nil {
			return 0, err
		}
		defer fwd.Close()
		down, err := newFacePair(scheme)
		if err != nil {
			return 0, err
		}
		defer down.close()
		up, err := newFacePair(scheme)
		if err != nil {
			return 0, err
		}
		var done sync.WaitGroup
		done.Add(1)
		go echo(up.accepted, reply, &done)
		defer func() {
			up.close()
			done.Wait()
		}()
		fwd.AddFace(down.accepted, true)
		fwd.AddRoute(s.w.prefix, fwd.AddFace(up.dialled, false))
		client := down.dialled
		var rtErr error
		nonce := uint64(1) << 32
		roundTrip := func(i int) {
			if rtErr != nil {
				return
			}
			in := *interests[i%len(interests)]
			nonce++
			in.Nonce = nonce
			if rtErr = client.SendInterest(&in); rtErr == nil {
				var pkt transport.Packet
				if pkt, rtErr = client.Receive(); rtErr == nil && (pkt.Data == nil || pkt.Data.Nack || pkt.Data.Content == nil) {
					rtErr = errors.New("the forwarder did not return content")
				}
			}
		}
		for i := range interests { // warm: the filter learns the tags, the store the names
			roundTrip(i)
		}
		ns := rp.median(name, replaySample, 1, roundTrip)
		return ns / 1e3, rtErr
	}
	if hitMicros, err = measure("forwarder.hit_hop", csCapacity); err != nil {
		return 0, 0, fmt.Errorf("hit hop: %w", err)
	}
	// One entry per shard: with hundreds of names in the cycle a name is
	// always evicted before it comes round again.
	if missMicros, err = measure("forwarder.miss_hop", numCSShards); err != nil {
		return 0, 0, fmt.Errorf("miss hop: %w", err)
	}
	return hitMicros, missMicros, nil
}

// layerTimes are the replayed medians, by metric name.
type layerTimes map[string]float64

// layers replays the sample through each layer's exported functions,
// single-threaded, one span per call.
func (rp *replayer) layers(s *sample) (layerTimes, error) {
	t := make(layerTimes)
	n := replaySample
	now := time.Now()
	ap := core.EmptyAccessPath.Accumulate(edgeID)

	// ndn: codec.
	buf := make([]byte, 0, 4096)
	t["ndn.encode_interest_ns"] = rp.median("ndn.encode_interest", n, nsBatch, func(i int) {
		buf, _ = ndn.AppendInterest(buf[:0], s.interests[i])
	})
	t["ndn.decode_interest_ns"] = rp.median("ndn.decode_interest", n, nsBatch, func(i int) {
		ndn.DecodeInterest(s.iFrames[i]) //nolint:errcheck // frames we encoded
	})
	t["ndn.encode_data_ns"] = rp.median("ndn.encode_data", n, nsBatch, func(i int) {
		buf, _ = ndn.AppendData(buf[:0], s.datum(i))
	})
	t["ndn.decode_data_ns"] = rp.median("ndn.decode_data", n, nsBatch, func(i int) {
		ndn.DecodeData(s.dFrames[i%len(s.dFrames)]) //nolint:errcheck // frames we encoded
	})
	t["ndn.decode_interest_allocs"] = allocsPer(n, func(i int) {
		ndn.DecodeInterest(s.iFrames[i]) //nolint:errcheck
	})
	t["ndn.decode_data_allocs"] = allocsPer(n, func(i int) {
		ndn.DecodeData(s.dFrames[i%len(s.dFrames)]) //nolint:errcheck
	})

	// ndn: tables, sized and filled like the edge's.
	cs := ndn.NewShardedCS(csCapacity)
	for _, c := range s.distinct[:min(len(s.distinct), 1024)] {
		cs.Insert(c)
	}
	t["ndn.cs_lookup_hit_ns"] = rp.median("ndn.cs_lookup_hit", n, nsBatch, func(i int) {
		cs.Lookup(s.distinct[i%min(len(s.distinct), 1024)].Meta.Name)
	})
	// Half as many places as distinct contents, walked in a cycle: every
	// insert misses and evicts, as on the full path.
	small := ndn.NewShardedCS(max(len(s.distinct)/2, numCSShards))
	for _, c := range s.distinct {
		small.Insert(c)
	}
	t["ndn.cs_insert_evict_ns"] = rp.median("ndn.cs_insert_evict", n, nsBatch, func(i int) {
		small.Insert(s.distinct[i%len(s.distinct)])
	})
	pit := ndn.NewShardedPIT()
	t["ndn.pit_insert_consume_ns"] = rp.median("ndn.pit_insert_consume", n, nsBatch, func(i int) {
		in := s.interests[i]
		pit.Admit(in.Name, ndn.PITRecord{Tag: in.Tag, InFace: 1, Nonce: in.Nonce, Arrived: now}, now, now.Add(4*time.Second))
		pit.SetOutFace(in.Name, 2)
		pit.Consume(in.Name)
	})
	fib := ndn.NewLockedFIB()
	fib.Insert(s.w.prefix, 2)
	t["ndn.fib_lookup_ns"] = rp.median("ndn.fib_lookup", n, nsBatch, func(i int) {
		fib.Lookup(s.interests[i].Name)
	})

	// bloom: a filter shaped like the edge's, on the tags' real cache keys.
	bf, err := bloom.NewPaper(bfCapacity, bfMaxFPP)
	if err != nil {
		return nil, err
	}
	for _, tag := range s.tags {
		bf.Add(tag.CacheKey())
	}
	t["bloom.contains_ns"] = rp.median("bloom.contains", n, nsBatch, func(i int) {
		bf.Contains(s.tags[i].CacheKey())
	})
	adds, err := bloom.NewPaper(bfCapacity, bfMaxFPP)
	if err != nil {
		return nil, err
	}
	t["bloom.add_ns"] = rp.median("bloom.add", n, nsBatch, func(i int) {
		adds.Add(s.forged[i].CacheKey())
	})

	// core: the per-tag steps of the pre-check, then the validator.
	t["core.cachekey_ns"] = rp.median("core.cachekey", n, nsBatch, func(i int) { s.tags[i].CacheKey() })
	t["core.tag_id_ns"] = rp.median("core.tag_id", n, nsBatch, func(i int) { s.tags[i].ID() })
	t["core.precheck_edge_ns"] = rp.median("core.precheck_edge", n, nsBatch, func(i int) {
		core.PreCheckEdge(s.tags[i], s.interests[i].Name, now) //nolint:errcheck // timing only
	})
	rev := core.NewRevocationSet()
	t["core.revocation_contains_ns"] = rp.median("core.revocation_contains", n, nsBatch, func(i int) {
		rev.Contains(s.tags[i].ID())
	})
	var failed error
	validator := core.NewTagValidator(s.w.registry)
	t["core.validate_ok_us"] = rp.median("core.validate_ok", n, 1, func(i int) {
		if err := validator.Validate(s.tags[i], now); err != nil {
			failed = fmt.Errorf("genuine tag rejected: %w", err)
		}
	}) / 1e3
	t["core.validate_forged_us"] = rp.median("core.validate_forged", n, 1, func(i int) {
		if err := validator.Validate(s.forged[i], now); !errors.Is(err, core.ErrTagForged) {
			failed = fmt.Errorf("forged tag not rejected as forged: %v", err)
		}
	}) / 1e3

	// pki: the signature primitives under set-up and verification.
	t["pki.verify_p256_us"] = rp.median("pki.verify_p256", n, 1, func(i int) {
		tag := s.tags[i]
		if err := s.w.registry.Verify(tag.ProviderKey, tag.SigningBytes(), tag.Signature); err != nil {
			failed = err
		}
	}) / 1e3
	signer, err := pki.GenerateECDSA(rand.Reader, names.MustNew("bench", "KEY", "1"))
	if err != nil {
		return nil, err
	}
	t["pki.sign_p256_us"] = rp.median("pki.sign_p256", n, 1, func(i int) {
		if _, err := signer.Sign(s.tags[i].SigningBytes()); err != nil {
			failed = err
		}
	}) / 1e3

	// enforce: the decision engine as the forwarder calls it.
	router := enforce.NewRouter(edgeID, bf, validator, mrand.New(mrand.NewSource(1)), core.Config{})
	t["enforce.edge_interest_hit_ns"] = rp.median("enforce.edge_interest_hit", n, nsBatch, func(i int) {
		if v := router.EdgeOnInterestFast(s.tags[i], ap, s.interests[i].Name, now); !v.BFHit {
			failed = errors.New("a warmed tag missed the filter")
		}
	})
	t["enforce.edge_interest_miss_ns"] = rp.median("enforce.edge_interest_miss", n, nsBatch, func(i int) {
		router.EdgeOnInterestFast(s.forged[i], ap, s.interests[i].Name, now)
	})
	flag := bf.FPP()
	t["enforce.content_interest_flag_ns"] = rp.median("enforce.content_interest_flag", n, nsBatch, func(i int) {
		router.ContentOnInterestFast(s.tags[i], s.datum(i).Content.Meta, flag, now)
	})
	t["enforce.edge_data_ns"] = rp.median("enforce.edge_data", n, nsBatch, func(i int) {
		router.EdgeOnData(s.tags[i], flag, false)
	})

	// loadgen: what the generator does per operation besides the codec and
	// the socket calls, which the face-pair measurement covers.
	t["loadgen.self_us_per_fetch"] = rp.median("loadgen.self", n, 1, func(i int) {
		req := s.self.next()
		if req.forged {
			s.w.forge(req.tag, uint64(i))
		}
		d := s.datum(i)
		chunk := s.w.nameIndex[d.Name.Key()]
		if sha256.Sum256(d.Content.Payload) != s.w.digests[chunk] {
			failed = fmt.Errorf("captured reply for chunk %d does not match its digest", chunk)
		}
	}) / 1e3
	return t, failed
}
