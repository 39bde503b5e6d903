package ndn

import (
	"encoding/binary"
	"fmt"

	"github.com/tactic-icn/tactic/internal/obs"
)

// TraceContext is the distributed-tracing context carried by Interest,
// Data, and NACK packets as an optional TLV (tlvTraceCtx): the context
// obs spans read and stamp (obs.Span.Onward). Decoders that predate the
// extension skip the element via the standard unknown-TLV-skipping path,
// so traced and untraced nodes interoperate.
type TraceContext = obs.TraceCtx

// traceCtxWireLen is the fixed TraceContext value length: trace ID (8),
// parent span ID (8), flags (1), hop count (1).
const traceCtxWireLen = 18

// traceCtxSampledBit flags the head-sampling decision in the flags byte.
const traceCtxSampledBit = 0x01

// appendTraceCtx writes the TraceContext TLV (type tlvTraceCtx).
func appendTraceCtx(dst []byte, tc TraceContext) []byte {
	dst = append(dst, tlvTraceCtx, traceCtxWireLen)
	dst = binary.BigEndian.AppendUint64(dst, tc.TraceID)
	dst = binary.BigEndian.AppendUint64(dst, tc.ParentID)
	var flags byte
	if tc.Sampled {
		flags |= traceCtxSampledBit
	}
	return append(dst, flags, tc.Hops)
}

// decodeTraceCtx parses a TraceContext TLV value.
func decodeTraceCtx(v []byte) (TraceContext, error) {
	if len(v) != traceCtxWireLen {
		return TraceContext{}, fmt.Errorf("ndn: bad TraceContext length %d", len(v))
	}
	return TraceContext{
		TraceID:  binary.BigEndian.Uint64(v),
		ParentID: binary.BigEndian.Uint64(v[8:]),
		Sampled:  v[16]&traceCtxSampledBit != 0,
		Hops:     v[17],
	}, nil
}
