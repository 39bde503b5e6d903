package forwarder

import (
	"crypto/rand"
	"errors"
	"io"
	"net"
	"reflect"
	"strconv"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/bloom"
	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/enforce"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/node"
	"github.com/tactic-icn/tactic/internal/pki"
	"github.com/tactic-icn/tactic/internal/transport"
)

// originEnv is one serving origin reached directly through faces: no
// edge, no core, so every verdict observed is the origin's own.
type originEnv struct {
	t       *testing.T
	prod    *Producer
	addr    string
	provKey *pki.ECDSAKeyPair
	rogue   *pki.ECDSAKeyPair
	gate    *gatePKI
	open    names.Name // public chunk
	report  names.Name // level-2 chunk
	// unpublished is provider-signed content the origin never published.
	unpublished *core.Content
	received    int // content replies (content and/or NACK) read by exchange
}

// gatedKey is the provider's registered public key with its
// verifications routed through a gatePKI, so a test can hold the
// origin's signature checks open through the public constructor.
type gatedKey struct {
	pki.PublicKey
	locator names.Name
	gate    *gatePKI
}

func (k gatedKey) Verify(msg, sig []byte) error { return k.gate.Verify(k.locator, msg, sig) }

// originRouter is the origin's enforcement state (Bloom filter,
// validator, revocation set, epoch), for the rows that must read it.
func originRouter(p *Producer) *enforce.Router { return p.node.tactic }

// startOrigin boots a producer on a ListenFace listener of the given
// scheme ("" = tcp, "udp://") with one public and one level-2 object.
func startOrigin(t *testing.T, scheme string) *originEnv {
	t.Helper()
	e := &originEnv{t: t}
	var err error
	locator := names.MustParse("/prov0/KEY/1")
	if e.provKey, err = pki.GenerateECDSA(rand.Reader, locator); err != nil {
		t.Fatal(err)
	}
	if e.rogue, err = pki.GenerateECDSA(rand.Reader, locator); err != nil {
		t.Fatal(err)
	}
	real := pki.NewRegistry()
	if err := real.Register(locator, e.provKey.Public()); err != nil {
		t.Fatal(err)
	}
	e.gate = &gatePKI{inner: real}
	registry := pki.NewRegistry()
	if err := registry.Register(locator, gatedKey{e.provKey.Public(), locator, e.gate}); err != nil {
		t.Fatal(err)
	}
	prefix := names.MustParse("/prov0")
	provider, err := core.NewProvider(prefix, e.provKey, time.Minute, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if e.prod, err = NewProducer(provider, registry, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.prod.PublishObject("open", core.Public, []byte("public info"), 1024); err != nil {
		t.Fatal(err)
	}
	if _, err := e.prod.PublishObject("report", 2, []byte("members only"), 1024); err != nil {
		t.Fatal(err)
	}
	if e.unpublished, err = provider.Publish(prefix.MustAppend("nothing", "chunk0"), core.Public, []byte("pushed")); err != nil {
		t.Fatal(err)
	}
	e.open = prefix.MustAppend("open", "chunk0")
	e.report = prefix.MustAppend("report", "chunk0")
	ln, err := transport.ListenFace(scheme+"127.0.0.1:0", transport.UDPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go e.prod.ServeFaces(ln) //nolint:errcheck // exits on close
	e.addr = scheme + ln.Addr().String()
	t.Cleanup(func() {
		e.gate.release()
		ln.Close()
		e.prod.Close()
	})
	return e
}

func (e *originEnv) dial() transport.Face {
	e.t.Helper()
	face, err := transport.DialFace(e.addr, transport.UDPOptions{})
	if err != nil {
		e.t.Fatal(err)
	}
	e.t.Cleanup(func() { face.Close() })
	return face
}

// tag mints a level-3 tag for user, signed by the provider or — forged —
// by a rogue key under the provider's locator.
func (e *originEnv) tag(user string, forged bool) *core.Tag {
	e.t.Helper()
	key := e.provKey
	if forged {
		key = e.rogue
	}
	tag, err := core.IssueTag(key, names.MustNew("users", user, "KEY", "1"), 3,
		core.EmptyAccessPath.Accumulate("edge-0"), time.Now().Add(time.Hour))
	if err != nil {
		e.t.Fatal(err)
	}
	return tag
}

// exchange sends one Interest and returns the origin's reply, or nil
// after 150 ms of silence.
func (e *originEnv) exchange(face transport.Face, i *ndn.Interest) *ndn.Data {
	e.t.Helper()
	if err := face.SendInterest(i); err != nil {
		e.t.Fatal(err)
	}
	face.SetIdleTimeout(150 * time.Millisecond)
	defer face.SetIdleTimeout(0)
	for {
		pkt, err := face.Receive()
		if err != nil {
			return nil
		}
		if d := pkt.Data; d != nil && d.Name.Equal(i.Name) {
			if d.Registration == nil {
				e.received++
			}
			return d
		}
	}
}

// registration builds a registration Interest for a fresh client,
// enrolled at the provider or not.
func (e *originEnv) registration(user string, enrolled bool, nonce uint64) *ndn.Interest {
	e.t.Helper()
	key, err := pki.GenerateECDSA(rand.Reader, names.MustNew("users", user, "KEY", "1"))
	if err != nil {
		e.t.Fatal(err)
	}
	client, err := core.NewClient(key, rand.Reader)
	if err != nil {
		e.t.Fatal(err)
	}
	if enrolled {
		e.prod.Provider().Enroll(client.KeyLocator(), key.Public(), 3)
	}
	req, err := client.NewRegistrationRequest(core.EmptyAccessPath.Accumulate("edge-0"))
	if err != nil {
		e.t.Fatal(err)
	}
	return &ndn.Interest{Name: names.MustParse("/prov0/register").MustAppend(user), Kind: ndn.KindRegistration,
		Nonce: nonce, Registration: &req}
}

// TestOriginContract pins what an origin answers, face-driven over a
// stream and a datagram listener: Protocol 3 on its own catalogue,
// registration, silence for what it does not publish, and no state
// change from Data or control frames. The rows run in order on one
// origin (the Bloom-filter row needs the one before it).
func TestOriginContract(t *testing.T) {
	type reply struct {
		content      bool
		nack         string // reason label, "" = no NACK
		registration bool
		silence      bool
	}
	for _, tr := range []struct{ name, scheme string }{{"tcp", ""}, {"udp", "udp://"}} {
		t.Run(tr.name, func(t *testing.T) {
			e := startOrigin(t, tr.scheme)
			face := e.dial()
			router := originRouter(e.prod)
			valid, forged := e.tag("alice", false), e.tag("mallory", true)
			rows := []struct {
				name  string
				i     *ndn.Interest
				want  reply
				after func(t *testing.T)
			}{
				{"public content, tagless",
					&ndn.Interest{Name: e.open, Kind: ndn.KindContent, Nonce: 1}, reply{content: true}, nil},
				{"private content, valid tag at F=0: verified",
					&ndn.Interest{Name: e.report, Kind: ndn.KindContent, Nonce: 2, Tag: valid}, reply{content: true},
					func(t *testing.T) {
						if got := router.Validator().Verifications(); got != 1 {
							t.Errorf("verifications = %d, want 1", got)
						}
					}},
				{"same tag again: Bloom-filter hit, no second verification",
					&ndn.Interest{Name: e.report, Kind: ndn.KindContent, Nonce: 3, Tag: valid}, reply{content: true},
					func(t *testing.T) {
						if got := router.Validator().Verifications(); got != 1 {
							t.Errorf("verifications = %d, want 1", got)
						}
					}},
				{"forged tag at F=0: content alongside a NACK (§5.B)",
					&ndn.Interest{Name: e.report, Kind: ndn.KindContent, Nonce: 4, Tag: forged},
					reply{content: true, nack: "forged"}, nil},
				{"private content, tagless: content alongside a NACK",
					&ndn.Interest{Name: e.report, Kind: ndn.KindContent, Nonce: 5}, reply{content: true, nack: "no_tag"}, nil},
				{"unknown name: silence",
					&ndn.Interest{Name: e.unpublished.Meta.Name, Kind: ndn.KindContent, Nonce: 6},
					reply{silence: true}, nil},
				{"registration, enrolled client: issued",
					e.registration("alice", true, 7), reply{registration: true},
					func(t *testing.T) {
						if st := e.prod.Stats(); st.Registrations != 1 || st.RegistrationsFailed != 0 {
							t.Errorf("stats = %+v, want 1 issued, 0 failed", st)
						}
					}},
				{"registration, unknown client: refused in silence",
					e.registration("eve", false, 8), reply{silence: true},
					func(t *testing.T) {
						if st := e.prod.Stats(); st.Registrations != 1 || st.RegistrationsFailed != 1 {
							t.Errorf("stats = %+v, want 1 issued, 1 failed", st)
						}
					}},
				{"registration without a request: malformed, silence",
					&ndn.Interest{Name: names.MustParse("/prov0/register/nobody"), Kind: ndn.KindRegistration, Nonce: 9},
					reply{silence: true},
					func(t *testing.T) {
						if st := e.prod.Stats(); st.Registrations != 1 || st.RegistrationsFailed != 2 {
							t.Errorf("stats = %+v, want 1 issued, 2 failed", st)
						}
					}},
			}
			for _, row := range rows {
				d := e.exchange(face, row.i)
				var got reply
				if d == nil {
					got.silence = true
				} else {
					got.content, got.registration = d.Content != nil, d.Registration != nil
					if d.Nack {
						got.nack = core.ReasonLabel(d.NackReason)
					}
				}
				if got != row.want {
					t.Errorf("%s: got %+v, want %+v", row.name, got, row.want)
				}
				if row.after != nil {
					row.after(t)
				}
			}

			// Data and control frames change nothing at the origin: it has no
			// upstream to hear Data from, and control frames are not
			// authenticated. A public fetch on the same face fences the frames.
			words, version, epoch := router.Bloom().Words(), router.Revocations().Version(), router.Epoch()
			hostile := e.tag("hostile", true)
			send := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			send(face.SendData(&ndn.Data{Name: names.MustParse("/prov0/register/hostile"),
				Registration: &core.RegistrationResponse{Tag: hostile}}))
			send(face.SendData(&ndn.Data{Name: e.unpublished.Meta.Name, Content: e.unpublished}))
			ones := &ndn.Control{Kind: ndn.CtrlBFSync, Origin: "client",
				Bits: router.Bloom().Bits(), Hashes: router.Bloom().Hashes()}
			for i := uint64(0); i < (router.Bloom().Bits()+63)/64; i++ {
				ones.Words = append(ones.Words, bloom.WordDelta{Index: uint32(i), Word: ^uint64(0)})
			}
			send(face.SendControl(ones))
			send(face.SendControl(&ndn.Control{Kind: ndn.CtrlRevoke, Version: 1 << 40, Origin: "client",
				Revoked: []core.TagID{valid.ID()}}))
			send(face.SendControl(&ndn.Control{Kind: ndn.CtrlRotate, Version: 99, Origin: "client"}))
			if d := e.exchange(face, &ndn.Interest{Name: e.open, Kind: ndn.KindContent, Nonce: 10}); d == nil || d.Content == nil {
				t.Fatalf("fence fetch got %+v", d)
			}
			if after := router.Bloom().Words(); !reflect.DeepEqual(words, after) {
				t.Fatalf("Bloom filter words changed: %v -> %v", words, after)
			}
			if router.Bloom().Contains(hostile.CacheKey()) {
				t.Error("a tag pushed in a Data reads as validated")
			}
			if d := e.exchange(face, &ndn.Interest{Name: e.unpublished.Meta.Name, Kind: ndn.KindContent, Nonce: 12}); d != nil {
				t.Errorf("content pushed in a Data is served: %+v", d)
			}
			if v, ep := router.Revocations().Version(), router.Epoch(); v != version || ep != epoch {
				t.Errorf("revocation version %d -> %d, epoch %d -> %d: control frames were applied", version, v, epoch, ep)
			}
			if d := e.exchange(face, &ndn.Interest{Name: e.report, Kind: ndn.KindContent, Nonce: 11, Tag: valid}); d == nil || d.Nack {
				t.Errorf("valid tag after the hostile frames got %+v", d)
			}

			// Every content reply is counted once, as served or as NACKed.
			if st := e.prod.Stats(); st.Served+st.NACKed != uint64(e.received) {
				t.Errorf("served %d + nacked %d != %d replies received", st.Served, st.NACKed, e.received)
			}
		})
	}
}

// TestProducerCloseDisconnectsPeers: Close returns with peers still
// connected — it closes their faces instead of waiting for them to hang
// up.
func TestProducerCloseDisconnectsPeers(t *testing.T) {
	e := startOrigin(t, "")
	face := e.dial()
	if d := e.exchange(face, &ndn.Interest{Name: e.open, Kind: ndn.KindContent, Nonce: 1}); d == nil {
		t.Fatal("origin not serving")
	}
	done := make(chan struct{})
	go func() {
		e.prod.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Close still waiting on a connected peer after 1 s")
	}
	face.SetIdleTimeout(time.Second)
	if pkt, err := face.Receive(); err == nil || isIdleTimeout(err) {
		t.Fatalf("face still open after Close: pkt=%+v err=%v", pkt, err)
	}
}

// isIdleTimeout reports whether a Receive error is the face's idle
// time-out rather than the peer closing.
func isIdleTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// TestOriginVerifiesOffTheReaders: a held signature verification stalls
// neither another face nor the origin as a whole, and a face that
// outruns its verification budget is shed while the others are served.
func TestOriginVerifiesOffTheReaders(t *testing.T) {
	e := startOrigin(t, "")
	router := originRouter(e.prod)
	busy, other := e.dial(), e.dial()

	e.gate.hold()
	if err := busy.SendInterest(&ndn.Interest{Name: e.report, Kind: ndn.KindContent, Nonce: 1, Tag: e.tag("alice", false)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the F=0 verification to start", func() bool { return router.Validator().InFlight() == 1 })
	if d := e.exchange(other, &ndn.Interest{Name: e.open, Kind: ndn.KindContent, Nonce: 2}); d == nil || d.Content == nil {
		t.Fatalf("public fetch on another face waited behind a held verification: %+v", d)
	}

	// One job is already charged to the busy face: budget+5 more distinct
	// unverified tags overrun it by 6.
	const over = 6
	burst := core.DefaultVerifyBudget + over - 1
	for k := 0; k < burst; k++ {
		if err := busy.SendInterest(&ndn.Interest{Name: e.report, Kind: ndn.KindContent, Nonce: uint64(100 + k),
			Tag: e.tag("flood"+strconv.Itoa(k), true)}); err != nil {
			t.Fatal(err)
		}
	}
	busy.SetIdleTimeout(2 * time.Second)
	for k := 0; k < over; k++ {
		pkt, err := busy.Receive()
		if err != nil {
			t.Fatalf("shed NACK %d of %d: %v (nothing is shed while the verifier is held)", k+1, over, err)
		}
		if d := pkt.Data; d == nil || !d.Nack || core.ReasonLabel(d.NackReason) != "overload" {
			t.Fatalf("reply %d while the verifier is held = %+v, want an overload NACK", k+1, pkt.Data)
		}
	}
	if d := e.exchange(other, &ndn.Interest{Name: e.open, Kind: ndn.KindContent, Nonce: 3}); d == nil || d.Content == nil {
		t.Fatalf("other face not served during the burst: %+v", d)
	}

	// Released, every admitted Interest gets its verdict.
	e.gate.release()
	busy.SetIdleTimeout(2 * time.Second)
	var content, forged int
	for k := 0; k < burst-over+1; k++ {
		pkt, err := busy.Receive()
		if err != nil {
			t.Fatalf("verdict %d: %v", k+1, err)
		}
		switch d := pkt.Data; {
		case d != nil && d.Nack && core.ReasonLabel(d.NackReason) == "forged":
			forged++
		case d != nil && !d.Nack && d.Content != nil:
			content++
		default:
			t.Fatalf("verdict %d = %+v", k+1, pkt.Data)
		}
	}
	if content != 1 || forged != burst-over {
		t.Errorf("verdicts: %d content, %d forged; want 1 and %d", content, forged, burst-over)
	}
}

// sinkFace is an attached face that reads nothing and discards what it
// is sent.
type sinkFace struct {
	transport.Face
	closed chan struct{}
	frames int
}

func (s *sinkFace) ReceiveInto(*transport.Scratch) (transport.Packet, error) {
	<-s.closed
	return transport.Packet{}, io.EOF
}
func (s *sinkFace) SendFrame([]byte) error           { s.frames++; return nil }
func (s *sinkFace) SendInterest(*ndn.Interest) error { s.frames++; return nil }
func (s *sinkFace) StartKeepalive(time.Duration)     {}
func (s *sinkFace) SetWriteTimeout(time.Duration)    {}
func (s *sinkFace) SetIdleTimeout(time.Duration)     {}
func (s *sinkFace) SetMetrics(*transport.Metrics)    {}
func (s *sinkFace) Stats() transport.Stats           { return transport.Stats{} }
func (s *sinkFace) RemoteAddr() net.Addr             { return nil }
func (s *sinkFace) Close() error                     { close(s.closed); return nil }

// TestOriginReplyAllocs: answering a published chunk, copied out of the
// store into the reader's reused hit buffer, allocates nothing beyond
// the decoded Interest — the reply literal stays on the stack
// because the origin encodes it itself (Forwarder.send) instead of
// passing it through the Face interface.
func TestOriginReplyAllocs(t *testing.T) {
	e := startOrigin(t, "")
	sink := &sinkFace{closed: make(chan struct{})}
	node := e.prod.node
	id := node.AddFace(sink, true)
	node.mu.RLock()
	fs := node.faces[id]
	node.mu.RUnlock()
	i := &ndn.Interest{Name: e.open, Kind: ndn.KindContent, Nonce: 1}
	var hit core.Content // the reader's hit buffer
	allocs := testing.AllocsPerRun(1000, func() { node.handleInterest(i, fs, nil, &hit, 0) })
	if allocs != 0 {
		t.Errorf("answering a published chunk allocates %.1f/op, want 0", allocs)
	}
	if sink.frames != 1001 {
		t.Errorf("%d replies sent, want 1001", sink.frames)
	}
}

// deadlineFace is a sinkFace that records the write deadline it is given.
type deadlineFace struct {
	sinkFace
	writeTimeout time.Duration
}

func (d *deadlineFace) SetWriteTimeout(t time.Duration) { d.writeTimeout = t }

// TestOriginFacesHaveAWriteDeadline: the origin bounds every send on its
// faces by DefaultWriteTimeout, so a client that stops reading cannot hold
// the verify worker replying to it forever.
func TestOriginFacesHaveAWriteDeadline(t *testing.T) {
	e := startOrigin(t, "")
	face := &deadlineFace{sinkFace: sinkFace{closed: make(chan struct{})}}
	e.prod.node.AddFace(face, true)
	if face.writeTimeout != DefaultWriteTimeout {
		t.Fatalf("origin face write timeout = %v, want %v", face.writeTimeout, DefaultWriteTimeout)
	}
}

// TestOriginCountsWhatItRefuses: a Data or a control frame sent to an
// origin is refused by its node core and counted, as an unsolicited drop
// and an invalid control frame.
func TestOriginCountsWhatItRefuses(t *testing.T) {
	e := startOrigin(t, "")
	face := e.dial()
	if err := face.SendData(&ndn.Data{Name: e.unpublished.Meta.Name, Content: e.unpublished}); err != nil {
		t.Fatal(err)
	}
	if err := face.SendControl(&ndn.Control{Kind: ndn.CtrlRotate, Version: 1, Origin: "client"}); err != nil {
		t.Fatal(err)
	}
	m := e.prod.node.m
	waitFor(t, "the refusals to be counted", func() bool {
		return m.drops[node.DropUnsolicited].Value() == 1 && m.ctrls[ndn.CtrlRotate.String()+"/"+node.ControlInvalid].Value() == 1
	})
}
