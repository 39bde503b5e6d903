package ndn

import "sync"

// Wire-buffer pooling for the live data path. Encoding a packet and
// reading a frame both need a scratch byte slice whose lifetime ends as
// soon as the bytes are flushed (send) or decoded (receive); pooling
// them keeps the frame bytes off the per-packet allocation count. No
// decoded packet aliases its input buffer — whether decoded into a
// packet of its own (DecodeInterest, DecodeData) or into a reader's
// target (DecodeInterestInto, DecodeDataInto), every decoder copies what
// it keeps — so returning a frame to the pool after decode is safe.
//
// Who owns a Content's bytes: DecodeData's Content is the caller's; a
// reader's target (DecodeDataInto) reuses its buffer on the next decode,
// so its Content is valid until then; a content store copies a chunk in
// (CS.Insert) and a hit out (CS.LookupInto), so nothing outside the store
// points into what it keeps. A send encodes synchronously, so a reply
// built from any of them may go out before its source is reused.

// pooledBufferCap is the initial capacity of pooled buffers: enough for
// a typical Interest or 1-KiB Data frame without growth.
const pooledBufferCap = 2048

var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, pooledBufferCap)
		return &b
	},
}

// AcquireBuffer returns a reusable byte slice of length 0 from the pool.
// Release it with ReleaseBuffer when the bytes are no longer referenced.
func AcquireBuffer() *[]byte {
	return bufPool.Get().(*[]byte)
}

// ReleaseBuffer returns a buffer obtained from AcquireBuffer (possibly
// regrown by the caller) to the pool. The caller must not retain any
// slice of it afterwards.
func ReleaseBuffer(b *[]byte) {
	*b = (*b)[:0]
	bufPool.Put(b)
}
