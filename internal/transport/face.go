package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tactic-icn/tactic/internal/ndn"
	"github.com/tactic-icn/tactic/internal/obs"
)

// faceCore is the half of the Face contract that never touches a
// socket, written once and embedded by both carriers: the timeouts, the
// face's ledger and its Stats snapshot, encode-and-send, the keepalive
// sender and its lifecycle, and the counting and decoding of a received
// frame. A carrier adds what is particular to its socket — how one frame
// is written (write) and how the next one is read (its Receive).
type faceCore struct {
	// write hands one encoded frame to the carrier; set at construction.
	write func(frame []byte) error

	// writeTimeout and idleTimeout hold time.Duration nanoseconds;
	// 0 disables the respective deadline.
	writeTimeout atomic.Int64
	idleTimeout  atomic.Int64

	// The face's ledger, and its only one: Stats reads these, and a
	// registry series for the face is a scrape-time view of Stats.
	framesIn, framesOut atomic.Uint64
	bytesIn, bytesOut   atomic.Uint64
	errs, flushes       atomic.Uint64
	kaIn, kaOut         atomic.Uint64

	metrics atomic.Pointer[Metrics]

	done     chan struct{}
	doneOnce sync.Once
	kaOnce   sync.Once
	kaWG     sync.WaitGroup
}

// SetWriteTimeout bounds each frame send — on a stream face the socket
// writes, header through flush; on a datagram face each datagram's queue
// admission or socket write — so a peer that stops draining surfaces as
// a fatal ConnError within d instead of blocking the sender forever.
// 0 disables.
func (fc *faceCore) SetWriteTimeout(d time.Duration) { fc.writeTimeout.Store(int64(d)) }

// SetIdleTimeout makes Receive fail when nothing (keepalives count)
// arrives for d, so a silently dead peer is detected and the face
// recycled — for a connectionless peer, the only way. Set it comfortably
// above the peer's keepalive interval (≥ 3x). 0 disables.
func (fc *faceCore) SetIdleTimeout(d time.Duration) { fc.idleTimeout.Store(int64(d)) }

// SetMetrics attaches the face's observability hooks. Safe to call
// concurrently with traffic.
func (fc *faceCore) SetMetrics(m *Metrics) { fc.metrics.Store(m) }

// Stats returns a snapshot of the face's counters.
func (fc *faceCore) Stats() Stats {
	return Stats{
		FramesIn:      fc.framesIn.Load(),
		FramesOut:     fc.framesOut.Load(),
		BytesIn:       fc.bytesIn.Load(),
		BytesOut:      fc.bytesOut.Load(),
		Errors:        fc.errs.Load(),
		KeepalivesIn:  fc.kaIn.Load(),
		KeepalivesOut: fc.kaOut.Load(),
		Flushes:       fc.flushes.Load(),
	}
}

// SendInterest encodes and sends one Interest. The encoding goes through
// a pooled scratch buffer: the frame bytes live only until write returns.
func (fc *faceCore) SendInterest(i *ndn.Interest) error {
	buf := ndn.AcquireBuffer()
	defer ndn.ReleaseBuffer(buf)
	frame, err := ndn.AppendInterest(*buf, i)
	return fc.sendEncoded(buf, frame, err)
}

// SendData encodes and sends one Data through a pooled scratch buffer.
func (fc *faceCore) SendData(d *ndn.Data) error {
	buf := ndn.AcquireBuffer()
	defer ndn.ReleaseBuffer(buf)
	frame, err := ndn.AppendData(*buf, d)
	return fc.sendEncoded(buf, frame, err)
}

// SendControl encodes and sends one control frame through a pooled
// scratch buffer.
func (fc *faceCore) SendControl(m *ndn.Control) error {
	buf := ndn.AcquireBuffer()
	defer ndn.ReleaseBuffer(buf)
	frame, err := ndn.AppendControl(*buf, m)
	return fc.sendEncoded(buf, frame, err)
}

// sendEncoded sends what an Append* call left in the pooled buffer.
func (fc *faceCore) sendEncoded(buf *[]byte, frame []byte, err error) error {
	if err != nil {
		return err
	}
	*buf = frame[:0] // keep any growth for the pool
	return fc.SendFrame(frame)
}

// SendFrame sends one pre-encoded TLV frame verbatim. The caller vouches
// for the bytes being a complete frame; no validation beyond the size
// bound is applied.
func (fc *faceCore) SendFrame(frame []byte) error {
	if len(frame) > MaxPacketSize {
		return ErrPacketTooLarge
	}
	if err := fc.write(frame); err != nil {
		return err
	}
	fc.framesOut.Add(1)
	fc.bytesOut.Add(uint64(len(frame)))
	return nil
}

// SendKeepalive sends one liveness frame.
func (fc *faceCore) SendKeepalive() error {
	if err := fc.SendFrame([]byte{typeKeepalive, 0}); err != nil {
		return err
	}
	fc.kaOut.Add(1)
	return nil
}

// StartKeepalive sends a liveness frame every interval until the face
// closes or a send fails, keeping the peer's idle timeout from firing on
// a healthy-but-quiet link. At most one keepalive goroutine runs per
// face; interval <= 0 is a no-op.
func (fc *faceCore) StartKeepalive(interval time.Duration) {
	if interval <= 0 {
		return
	}
	fc.kaOnce.Do(func() {
		fc.kaWG.Add(1)
		go func() {
			defer fc.kaWG.Done()
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-fc.done:
					return
				case <-t.C:
					if err := fc.SendKeepalive(); err != nil {
						return
					}
				}
			}
		}()
	})
}

// markDone stops the keepalive sender and releases whoever waits on
// done; the carrier's Close then closes its socket and waits on kaWG.
func (fc *faceCore) markDone() { fc.doneOnce.Do(func() { close(fc.done) }) }

// received accounts one complete frame and decodes it (into s when it
// is non-nil; see Scratch). ok is false for a keepalive — to the ledger
// a frame like any other, to Receive's caller invisible.
func (fc *faceCore) received(typ byte, frame []byte, wire int, s *Scratch) (pkt Packet, ok bool, err error) {
	n := fc.countIn(typ, wire)
	if typ == typeKeepalive {
		return Packet{}, false, nil
	}
	pkt, err = fc.decode(typ, frame, n, s)
	return pkt, err == nil, err
}

// countIn is the one place a received frame is counted, whatever it
// holds and whether or not it decodes; it returns the face's frame count.
// wire is how many of the frame's bytes on the wire are not counted yet:
// all of them, except for a frame reassembled from fragments, whose
// datagrams were counted as they came.
func (fc *faceCore) countIn(typ byte, wire int) uint64 {
	fc.bytesIn.Add(uint64(wire))
	if typ == typeKeepalive {
		fc.kaIn.Add(1)
	}
	return fc.framesIn.Add(1)
}

// decode decodes the face's n-th frame, timing one in 64 for
// Metrics.DecodeSeconds: an Interest or a Data into s when it is
// non-nil, into packets of their own otherwise. A frame that does not
// decode counts an error.
func (fc *faceCore) decode(typ byte, frame []byte, n uint64, s *Scratch) (pkt Packet, err error) {
	var hist *obs.Histogram
	var start time.Time
	if n&decodeSampleMask == 0 {
		if m := fc.metrics.Load(); m != nil && m.DecodeSeconds != nil {
			hist = m.DecodeSeconds
			start = time.Now()
		}
	}
	switch {
	case typ == typeInterest && s != nil:
		pkt.Interest, err = &s.Interest, ndn.DecodeInterestInto(&s.Interest, frame)
	case typ == typeInterest:
		pkt.Interest, err = ndn.DecodeInterest(frame)
	case typ == typeData && s != nil:
		pkt.Data, err = &s.Data, ndn.DecodeDataInto(&s.Data, &s.Content, frame)
	case typ == typeData:
		pkt.Data, err = ndn.DecodeData(frame)
	case typ == typeControl:
		pkt.Control, err = ndn.DecodeControl(frame)
		hist = nil // the decode stage is the data plane's
	default:
		err = fmt.Errorf("%w: %#x", ErrBadPacketType, typ)
	}
	if err != nil {
		fc.errs.Add(1)
		return Packet{}, err
	}
	if hist != nil {
		pkt.DecodeDur = time.Since(start)
		hist.Observe(pkt.DecodeDur.Seconds())
	}
	return pkt, nil
}
