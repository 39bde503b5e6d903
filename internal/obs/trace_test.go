package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanEmitsJSONLine(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer("edge-0", 1, &buf)
	sp := tr.StartCtx(TraceCtx{}, "interest", "/prov0/report/chunk0")
	sp.Event("precheck", "ok")
	sp.Event("bf_lookup", "hit")
	sp.Event("flag", "F=0.0001")
	sp.End("forwarded", 0)

	line := strings.TrimSpace(buf.String())
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("span is not valid JSON: %v\n%s", err, line)
	}
	if rec["node"] != "edge-0" || rec["kind"] != "interest" || rec["outcome"] != "forwarded" {
		t.Errorf("span fields = %v", rec)
	}
	events, ok := rec["events"].([]any)
	if !ok || len(events) != 3 {
		t.Fatalf("events = %v", rec["events"])
	}
	first := events[0].(map[string]any)
	if first["stage"] != "precheck" || first["d"] != "ok" {
		t.Errorf("first event = %v", first)
	}
	if tr.Spans() != 1 {
		t.Errorf("spans = %d", tr.Spans())
	}
}

func TestTracerSampling(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer("n", 0.1, &buf)
	const total = 1000
	kept := 0
	for i := 0; i < total; i++ {
		if sp := tr.StartCtx(TraceCtx{}, "interest", "/x"); sp != nil {
			kept++
			sp.End("ok", 0)
		}
	}
	if kept != total/10 {
		t.Errorf("kept %d of %d at sample 0.1, want exactly %d (stride sampling)", kept, total, total/10)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		lines++
	}
	if lines != kept {
		t.Errorf("emitted %d lines for %d kept spans", lines, kept)
	}
}

func TestTracerDisabled(t *testing.T) {
	if tr := NewTracer("n", 0, &bytes.Buffer{}); tr != nil {
		t.Error("sample 0 should disable the tracer")
	}
	if tr := NewTracer("n", 1, nil); tr != nil {
		t.Error("nil writer should disable the tracer")
	}
	var tr *Tracer
	sp := tr.StartCtx(TraceCtx{}, "interest", "/x") // must not panic
	sp.Event("a", "b")
	sp.End("ok", 0)
	if tr.Spans() != 0 {
		t.Error("nil tracer counted spans")
	}
}

// TestSpanOnward checks the onward context every hop stamps: only a span
// on the wire's trace re-parents it, a non-recording hop passes a traced
// packet through one hop deeper, and nothing untraced becomes traced.
func TestSpanOnward(t *testing.T) {
	// Sample 0: records only what the wire sampled, like a simulated hop
	// or a forwarder whose clients own the head-sampling decision.
	hop := NewTracerRecorder("core-0", 0, io.Discard, nil)
	local := NewTracer("edge-0", 1, io.Discard)
	sampled := TraceCtx{TraceID: 7, ParentID: 9, Sampled: true, Hops: 2}
	unsampled := TraceCtx{TraceID: 7, ParentID: 9, Hops: 2}
	rec := hop.StartCtx(sampled, "interest", "/x")
	root := hop.StartRoot("fetch", "/x")
	for _, tc := range []struct {
		name string
		sp   *Span
		in   TraceCtx
		want TraceCtx
	}{
		{"no wire context", hop.StartCtx(TraceCtx{}, "interest", "/x"), TraceCtx{}, TraceCtx{}},
		{"non-recording hop", hop.StartCtx(unsampled, "interest", "/x"), unsampled,
			TraceCtx{TraceID: 7, ParentID: 9, Hops: 3}},
		{"recording hop", rec, sampled, TraceCtx{TraceID: 7, ParentID: rec.spanID, Sampled: true, Hops: 3}},
		{"locally sampled, no wire context", local.StartCtx(TraceCtx{}, "interest", "/x"), TraceCtx{}, TraceCtx{}},
		{"root span", root, TraceCtx{}, TraceCtx{TraceID: root.traceID, ParentID: root.spanID, Sampled: true, Hops: 1}},
	} {
		if got := tc.sp.Onward(tc.in); got != tc.want {
			t.Errorf("%s: Onward(%+v) = %+v, want %+v", tc.name, tc.in, got, tc.want)
		}
	}
}

// TestInjectedClockTimestamps runs a span under a driver's clock that
// never moves unless told to: the start time, every event offset and
// the duration come from it, and a positive proc is the duration
// outright.
func TestInjectedClockTimestamps(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer("edge-0", 1, &buf)
	start := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	now := start
	tr.SetClock(func() time.Time { return now })

	sp := tr.StartCtx(TraceCtx{}, "interest", "/x")
	now = now.Add(30 * time.Microsecond)
	sp.Event("bf_lookup", "hit")
	now = now.Add(70 * time.Microsecond)
	sp.EventDur("verify", 50*time.Microsecond, "")
	now = now.Add(400 * time.Microsecond)
	sp.End("forwarded", 0)
	tr.StartCtx(TraceCtx{}, "interest", "/y").End("forwarded", 250*time.Microsecond)

	var recs []SpanRecord
	for sc := bufio.NewScanner(&buf); sc.Scan(); {
		var rec SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 2 {
		t.Fatalf("emitted %d spans, want 2", len(recs))
	}
	first := recs[0]
	if first.Time != start.Format(time.RFC3339Nano) || first.StartNano != start.UnixNano() {
		t.Errorf("start t=%q ts_ns=%d, want the injected clock's %s", first.Time, first.StartNano, start)
	}
	want := []SpanEvent{{Stage: "bf_lookup", AtMicros: 30, Detail: "hit"}, {Stage: "verify", AtMicros: 100, DurMicros: 50}}
	if len(first.Events) != len(want) || first.Events[0] != want[0] || first.Events[1] != want[1] {
		t.Errorf("events = %+v, want %+v", first.Events, want)
	}
	if first.DurMicro != 500 {
		t.Errorf("dur_us = %d, want 500 elapsed on the injected clock", first.DurMicro)
	}
	if second := recs[1]; second.StartNano != now.UnixNano() || second.DurMicro != 250 {
		t.Errorf("proc span ts_ns=%d dur_us=%d, want %d and the charged 250", second.StartNano, second.DurMicro, now.UnixNano())
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer("n", 1, &buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp := tr.StartCtx(TraceCtx{}, "interest", "/x")
				sp.Event("stage", "d")
				sp.End("ok", 0)
			}
		}()
	}
	wg.Wait()
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("interleaved/corrupt line: %v", err)
		}
		lines++
	}
	if lines != 800 {
		t.Errorf("lines = %d, want 800", lines)
	}
}
