package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"testing"

	"github.com/tactic-icn/tactic/internal/names"
	"github.com/tactic-icn/tactic/internal/ndn"
)

// TestReadFrameAllocs: reading a frame whose length takes the 32-bit
// form allocates nothing — the header stays on the stack and the body
// lands in the caller's buffer.
func TestReadFrameAllocs(t *testing.T) {
	body := bytes.Repeat([]byte{0xAB}, 300)
	frame := append([]byte{typeData, 254}, binary.BigEndian.AppendUint32(nil, uint32(len(body)))...)
	frame = append(frame, body...)
	src := bytes.NewReader(frame)
	r := bufio.NewReader(src)
	buf := make([]byte, 0, 2*len(frame))
	allocs := testing.AllocsPerRun(1000, func() {
		src.Reset(frame)
		r.Reset(src)
		got, typ, err := readFrame(r, &buf)
		if err != nil || typ != typeData || !bytes.Equal(got, frame) {
			t.Fatalf("readFrame = %d bytes, type %#x, %v", len(got), typ, err)
		}
	})
	if allocs != 0 {
		t.Errorf("readFrame of a 254-form frame allocates %.1f/op, want 0", allocs)
	}
}

// tcpPair builds two stream faces over a loopback TCP connection.
func tcpPair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	dialed, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}
	a, b := New(dialed), New(server)
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// TestReceiveIntoAllocs holds a reader-owned receive to what its caller
// keeps, over a stream pair and over a datagram pair: nothing. An
// Interest and a Data decode into the scratch targets, a Data's Content
// into the scratch's Content, whose encoding buffer carries over.
func TestReceiveIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	tag := testTag(t)
	interest, err := ndn.EncodeInterest(&ndn.Interest{Name: names.MustParse("/prov0/obj/c0"),
		Kind: ndn.KindContent, Nonce: 7, Tag: tag, Flag: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	d := testData(bytes.Repeat([]byte{1}, 512))
	d.Tag = tag
	data, err := ndn.EncodeData(d)
	if err != nil {
		t.Fatal(err)
	}
	tcpA, tcpB := tcpPair(t)
	ep, dialed := udpPair(t, UDPOptions{})
	if err := dialed.SendKeepalive(); err != nil { // makes the endpoint's face
		t.Fatal(err)
	}
	accepted := acceptOne(t, ep)
	pairs := []struct {
		name     string
		from, to Face
	}{
		{"stream", tcpA, tcpB},
		{"datagram/endpoint", dialed, accepted},
		{"datagram/conn", accepted, dialed},
	}
	for _, p := range pairs {
		var s Scratch
		for _, pkt := range []struct {
			kind  string
			frame []byte
			want  float64
		}{
			{"Interest", interest, 0},
			{"Data", data, 0},
		} {
			roundTrip := func() {
				if err := p.from.SendFrame(pkt.frame); err != nil {
					t.Fatal(err)
				}
				got, err := p.to.ReceiveInto(&s)
				if err != nil {
					t.Fatal(err)
				}
				if (got.Interest != &s.Interest) == (got.Data != &s.Data) ||
					got.Data != nil && got.Data.Content != &s.Content {
					t.Fatalf("%s: packet not decoded into the scratch target: %+v", p.name, got)
				}
			}
			roundTrip() // warm the intern tables and the buffer pools
			if allocs := testing.AllocsPerRun(500, roundTrip); allocs != pkt.want {
				t.Errorf("%s: receiving one %s allocates %.1f/op, want %.0f", p.name, pkt.kind, allocs, pkt.want)
			}
		}
	}
}
