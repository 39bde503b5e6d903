package chaos

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"github.com/tactic-icn/tactic/internal/core"
	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/transport"
)

// memConn is a net.Conn stub recording writes.
type memConn struct {
	net.Conn
	writes [][]byte
	closed bool
}

func (m *memConn) Write(b []byte) (int, error) {
	cp := append([]byte(nil), b...)
	m.writes = append(m.writes, cp)
	return len(b), nil
}
func (m *memConn) Close() error { m.closed = true; return nil }

func TestDeterministicSchedule(t *testing.T) {
	cfg := Config{Seed: 42, Drop: 0.3, Dup: 0.2, Delay: 0.1, MaxDelay: time.Microsecond}
	schedule := func() []Stats {
		m := &memConn{}
		c := Wrap(m, cfg)
		var out []Stats
		for i := 0; i < 50; i++ {
			c.Write([]byte{byte(i)}) //nolint:errcheck
			out = append(out, c.Stats())
		}
		return out
	}
	a, b := schedule(), schedule()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at write %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	last := a[len(a)-1]
	if last.Drops == 0 || last.Dups == 0 {
		t.Errorf("50 writes at 30%%/20%% injected no drops or no dups: %+v", last)
	}
}

func TestDropSwallowsWrites(t *testing.T) {
	m := &memConn{}
	c := Wrap(m, Config{Seed: 1, Drop: 1})
	n, err := c.Write([]byte("abc"))
	if err != nil || n != 3 {
		t.Fatalf("dropped write returned (%d, %v), want success", n, err)
	}
	if len(m.writes) != 0 {
		t.Errorf("dropped write reached the wire: %v", m.writes)
	}
}

func TestDupWritesTwice(t *testing.T) {
	m := &memConn{}
	c := Wrap(m, Config{Seed: 1, Dup: 1})
	if _, err := c.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if len(m.writes) != 2 {
		t.Fatalf("dup produced %d writes, want 2", len(m.writes))
	}
}

func TestResetClosesAndFails(t *testing.T) {
	m := &memConn{}
	c := Wrap(m, Config{Seed: 1, Reset: 1})
	if _, err := c.Write([]byte("abc")); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("err = %v, want ErrInjectedReset", err)
	}
	if !m.closed {
		t.Error("reset did not close the underlying connection")
	}
}

func TestTruncWritesHalfAndCloses(t *testing.T) {
	m := &memConn{}
	c := Wrap(m, Config{Seed: 1, Trunc: 1})
	if _, err := c.Write([]byte("abcd")); !errors.Is(err, ErrInjectedTruncation) {
		t.Fatalf("err = %v, want ErrInjectedTruncation", err)
	}
	if len(m.writes) != 1 || len(m.writes[0]) != 2 {
		t.Errorf("truncation wrote %v, want one 2-byte write", m.writes)
	}
	if !m.closed {
		t.Error("truncation did not close the underlying connection")
	}
}

// TestChaosUnderTransport runs real framed traffic through a dup-only
// chaos conn and checks the receiver sees the duplicate frame — i.e.
// chaos composes with internal/transport framing.
func TestChaosUnderTransport(t *testing.T) {
	a, b := net.Pipe()
	sender := transport.New(Wrap(a, Config{Seed: 9, Dup: 1}))
	receiver := transport.New(b)
	defer sender.Close()
	defer receiver.Close()

	go sender.SendInterest(&ndn.Interest{Name: names.MustParse("/x/y"), Kind: ndn.KindContent, Nonce: 5}) //nolint:errcheck
	for i := 0; i < 2; i++ {
		pkt, err := receiver.Receive()
		if err != nil {
			t.Fatalf("copy %d: %v", i, err)
		}
		if pkt.Interest == nil || pkt.Interest.Nonce != 5 {
			t.Fatalf("copy %d corrupted: %+v", i, pkt)
		}
	}
}

// TestChaosDropLosesWholeFrames is the framing contract faults rely on:
// a Write carries whole frames only, so a dropped Write loses packets and
// never desynchronises the stream. Deferral is active — the sender's
// reader takes one of two buffered frames and never comes back, so only
// the byte threshold (or the 1 ms backstop) ends a batch — and each round
// queues a frame that fits beside what is buffered and then one that does
// not: the case bufio would split across two Writes.
func TestChaosDropLosesWholeFrames(t *testing.T) {
	a, b := net.Pipe()
	faulty := Wrap(a, Config{Seed: 11, Drop: 0.4})
	sender := transport.New(faulty)
	receiver := transport.New(b)
	var pending []byte
	for nonce := uint64(1); nonce <= 2; nonce++ {
		var err error
		if pending, err = ndn.AppendInterest(pending, &ndn.Interest{Name: names.MustParse("/x/y"), Kind: ndn.KindContent, Nonce: nonce}); err != nil {
			t.Fatal(err)
		}
	}
	go b.Write(pending) //nolint:errcheck // a lost write fails the Receive below
	if _, err := sender.Receive(); err != nil {
		t.Fatal(err)
	}

	received := make(chan int, 1)
	recvErr := make(chan error, 1)
	go func() {
		defer receiver.Close() // a receiver that gave up must fail the sender, not wedge it
		n := 0
		for {
			if _, err := receiver.Receive(); err != nil {
				received <- n
				recvErr <- err
				return
			}
			n++
		}
	}()

	data := func(size int) *ndn.Data {
		name := names.MustParse("/prov0/obj/c0")
		return &ndn.Data{Name: name, Content: &core.Content{
			Meta:      core.ContentMeta{Name: name, Level: 1, ProviderKey: names.MustParse("/prov0/KEY/1")},
			Payload:   make([]byte, size),
			Signature: []byte("sig"),
		}}
	}
	const rounds = 20
	for i := 0; i < rounds; i++ {
		for _, err := range []error{
			sender.SendData(data(30 << 10)), // held: under the threshold
			sender.SendData(data(40 << 10)), // larger than the buffer's free space
			sender.SendInterest(&ndn.Interest{Name: names.MustParse("/x/y"), Kind: ndn.KindContent, Nonce: uint64(i)}),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	sender.Close()

	got := <-received
	if err := <-recvErr; !errors.Is(err, io.EOF) {
		t.Errorf("stream ended with %v, want a clean EOF", err)
	}
	if st := receiver.Stats(); st.Errors != 0 {
		t.Errorf("receiver counted %d framing errors", st.Errors)
	}
	if drops := faulty.Stats().Drops; drops == 0 || got == 0 || got >= 3*rounds {
		t.Errorf("%d of %d frames arrived with %d dropped writes: the schedule exercised nothing", got, 3*rounds, drops)
	}
}

// TestChaosResetIsFatalToTransport checks the contract the forwarder's
// face recycling relies on: an injected reset surfaces as a fatal
// transport error on the write side.
func TestChaosResetIsFatalToTransport(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	conn := transport.New(Wrap(a, Config{Seed: 3, Reset: 1}))
	err := conn.SendInterest(&ndn.Interest{Name: names.MustParse("/x/y"), Kind: ndn.KindContent, Nonce: 1})
	if err == nil {
		t.Fatal("write through reset chaos succeeded")
	}
	if !transport.IsFatal(err) {
		t.Errorf("injected reset not fatal: %v", err)
	}
	if !errors.Is(err, ErrInjectedReset) {
		t.Errorf("cause lost: %v", err)
	}
	conn.Close()
	// The peer sees the stream end.
	if _, err := transport.New(b).Receive(); !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrClosedPipe) {
		t.Logf("peer read after reset: %v", err)
	}
}

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("drop=0.05,dup=0.01,delay=0.1,maxdelay=20ms,trunc=0.02,reset=0.001,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Seed: 7, Drop: 0.05, Dup: 0.01, Delay: 0.1, MaxDelay: 20 * time.Millisecond, Trunc: 0.02, Reset: 0.001}
	if cfg != want {
		t.Errorf("cfg = %+v, want %+v", cfg, want)
	}
	if cfg, err := ParseSpec(""); err != nil || cfg != (Config{}) {
		t.Errorf("empty spec: %+v, %v", cfg, err)
	}
	for _, bad := range []string{"drop", "drop=2", "drop=-1", "maxdelay=xx", "seed=abc", "wat=1", "drop=0.9,dup=0.9"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}
