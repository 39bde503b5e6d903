package obs

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestUnsampledSpanZeroAllocs pins the issue's hot-path contract: a
// packet the head-sampler skips must not allocate at all.
func TestUnsampledSpanZeroAllocs(t *testing.T) {
	// Minimum stride threshold keeps ~1 in 2^32 spans; none of the runs
	// below will be sampled.
	wall := NewTracerRecorder("edge-0", 1e-12, io.Discard, NewRecorder(64))
	// A driver's clock (the simulator's virtual one) costs nothing either.
	driven := NewTracerRecorder("edge-0", 1e-12, io.Discard, NewRecorder(64))
	epoch := time.Unix(0, 0)
	driven.SetClock(func() time.Time { return epoch })
	for name, tr := range map[string]*Tracer{"wall clock": wall, "injected clock": driven} {
		allocs := testing.AllocsPerRun(1000, func() {
			sp := tr.StartCtx(TraceCtx{}, "interest", "/prov0/report/chunk0")
			if sp != nil {
				t.Fatal("span unexpectedly sampled")
			}
			sp.Event("bf_lookup", "hit")
			sp.End("forwarded", 0)
		})
		if allocs != 0 {
			t.Errorf("%s: unsampled span path allocates %.1f/op, want 0", name, allocs)
		}
	}
}

// TestSampledSpanPooledAllocs keeps the sampled path honest too: span
// structs are pooled and JSON is built in a reused buffer, so steady
// state stays small (the emit path may grow the buffer once).
func TestSampledSpanPooledAllocs(t *testing.T) {
	tr := NewTracerRecorder("edge-0", 1, io.Discard, nil)
	// Warm the pool and the emit buffer.
	for i := 0; i < 100; i++ {
		sp := tr.StartCtx(TraceCtx{}, "interest", "/prov0/report/chunk0")
		sp.EventDur("bf_lookup", 1000, "hit")
		sp.End("forwarded", 0)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.StartCtx(TraceCtx{}, "interest", "/prov0/report/chunk0")
		sp.EventDur("bf_lookup", 1000, "hit")
		sp.End("forwarded", 0)
	})
	// Only the flight-recorder hand-off (one SpanRecord + events slice +
	// strings per emitted span) remains; with no recorder and a discard
	// writer the steady state is a handful of allocations.
	if allocs > 8 {
		t.Errorf("sampled span path allocates %.1f/op, want <= 8", allocs)
	}
}

// BenchmarkSpanUnsampled measures the per-packet cost of tracing for
// the 1023/1024 packets the sampler skips.
func BenchmarkSpanUnsampled(b *testing.B) {
	tr := NewTracerRecorder("edge-0", 1.0/1024, io.Discard, NewRecorder(1024))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.StartCtx(TraceCtx{}, "interest", "/prov0/report/chunk0")
		if sp != nil {
			sp.End("forwarded", 0)
		}
	}
}

// BenchmarkSpanSampled measures a fully recorded span: start, two
// events, JSON encode, ring insert.
func BenchmarkSpanSampled(b *testing.B) {
	tr := NewTracerRecorder("edge-0", 1, io.Discard, NewRecorder(1024))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.StartCtx(TraceCtx{}, "interest", "/prov0/report/chunk0")
		sp.EventDur("bf_lookup", 1500, "hit")
		sp.Event("flag", "F=0.0001")
		sp.End("forwarded", 0)
	}
}

// TestRecorderOverflow fills the ring past capacity and checks the
// snapshot holds the most recent spans only.
func TestRecorderOverflow(t *testing.T) {
	rec := NewRecorder(8)
	tr := NewTracerRecorder("n", 1, io.Discard, rec)
	const total = 30
	for i := 0; i < total; i++ {
		sp := tr.StartCtx(TraceCtx{}, "interest", fmt.Sprintf("/x/%d", i))
		sp.End("ok", 0)
	}
	snap := rec.Snapshot()
	if len(snap) != rec.Cap() {
		t.Fatalf("snapshot holds %d spans, ring cap %d", len(snap), rec.Cap())
	}
	for _, s := range snap {
		// Ring keeps the newest spans: names /x/22../x/29 survive.
		var n int
		if _, err := fmt.Sscanf(s.Name, "/x/%d", &n); err != nil || n < total-rec.Cap() {
			t.Errorf("snapshot kept old span %q", s.Name)
		}
	}
}

// TestCollectorReadSpansRoundTrip feeds a tracer's JSONL output back
// through the collector and checks the assembled trace matches what was
// recorded.
func TestCollectorReadSpansRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer("edge-0", 1, &buf)
	tr.SetRole("edge")

	root := tr.StartRoot("fetch", "/prov0/report")
	rootID := root.TraceID()
	ctx := root.Onward(TraceCtx{})
	hop1 := tr.StartCtx(ctx, "interest", "/prov0/report")
	hop1.EventDur("verify", 80_000, "ok")
	hop1.End("forwarded", 0)
	root.End("delivered", 0)

	c := NewCollector()
	n, err := c.ReadSpans(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("ReadSpans parsed %d spans, want 2", n)
	}
	trace := c.Get(rootID)
	if trace == nil {
		t.Fatalf("trace %s not assembled", HexID(rootID))
	}
	if len(trace.Spans) != 2 || trace.Hops() != 2 {
		t.Fatalf("trace spans=%d hops=%d, want 2/2", len(trace.Spans), trace.Hops())
	}
	if trace.Spans[0].Hop != 0 || trace.Spans[1].Hop != 1 {
		t.Errorf("spans not in hop order: %d, %d", trace.Spans[0].Hop, trace.Spans[1].Hop)
	}
	if ev := trace.Spans[1].Events; len(ev) != 1 || ev[0].Stage != "verify" || ev[0].DurMicros != 80 {
		t.Errorf("hop-1 events = %+v", ev)
	}
	// Blank lines are skipped; a malformed line aborts with its line
	// number, preserving the count parsed so far.
	n, err = c.ReadSpans(strings.NewReader("\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("ReadSpans on garbage err = %v, want line-2 error", err)
	}
	if n != 0 {
		t.Errorf("ReadSpans on garbage read %d spans, want 0", n)
	}
}

// TestHexIDRoundTrip checks the wire format of trace IDs.
func TestHexIDRoundTrip(t *testing.T) {
	if HexID(0) != "" {
		t.Errorf("HexID(0) = %q, want empty", HexID(0))
	}
	if ParseHexID("") != 0 || ParseHexID("zz") != 0 {
		t.Error("ParseHexID on invalid input should return 0")
	}
	for _, id := range []uint64{1, 0xdeadbeef, ^uint64(0)} {
		if got := ParseHexID(HexID(id)); got != id {
			t.Errorf("round trip %x -> %q -> %x", id, HexID(id), got)
		}
	}
}

// TestTracezEmptyAndOverflow drives the /tracez endpoint against a
// tracer with no recorder, an empty recorder, and an overflowing one.
func TestTracezEmptyAndOverflow(t *testing.T) {
	get := func(mux *http.ServeMux, path string) (int, string) {
		t.Helper()
		srv := httptest.NewServer(mux)
		defer srv.Close()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// No recorder: tracing reported as disabled, not an error.
	mux := http.NewServeMux()
	AttachTracez(mux, NewTracer("n", 1, io.Discard))
	if code, body := get(mux, "/tracez"); code != http.StatusOK || !strings.Contains(body, "tracing disabled") {
		t.Errorf("no-recorder /tracez = %d %q", code, body)
	}

	// Empty recorder: zero traces, still a well-formed index.
	tr := NewTracerRecorder("n", 1, io.Discard, NewRecorder(16))
	mux = http.NewServeMux()
	AttachTracez(mux, tr)
	if code, body := get(mux, "/tracez"); code != http.StatusOK || !strings.Contains(body, "traces=0") {
		t.Errorf("empty /tracez = %d %q", code, body)
	}
	// Unknown trace ID: 404 with the ring size in the message.
	if code, _ := get(mux, "/tracez?trace=dead"); code != http.StatusNotFound {
		t.Errorf("unknown trace = %d, want 404", code)
	}

	// Overflowing recorder: old spans evicted, the page still renders and
	// JSON stays valid.
	var lastID uint64
	for i := 0; i < 100; i++ {
		sp := tr.StartRoot("fetch", fmt.Sprintf("/x/%d", i))
		lastID = sp.TraceID()
		sp.End("delivered", 0)
	}
	code, body := get(mux, "/tracez")
	if code != http.StatusOK || !strings.Contains(body, HexID(lastID)) {
		t.Errorf("overflowing /tracez = %d, missing newest trace %s:\n%s", code, HexID(lastID), body)
	}
	if code, body := get(mux, "/tracez?format=json"); code != http.StatusOK || !strings.Contains(body, `"trace"`) {
		t.Errorf("json /tracez = %d %q", code, body)
	}
	if code, body := get(mux, "/tracez?trace="+HexID(lastID)); code != http.StatusOK || !strings.Contains(body, "delivered") {
		t.Errorf("waterfall = %d %q", code, body)
	}
}

// TestAdminEndpointsUnderLiveTraffic scrapes /metrics, /statusz, and
// /tracez concurrently with live metric updates and span recording —
// the race detector turns any unsynchronised access into a failure.
func TestAdminEndpointsUnderLiveTraffic(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracerRecorder("edge-0", 1, io.Discard, NewRecorder(64))
	mux := NewAdminMux(reg, func() any { return map[string]int{"pit": 1} })
	AttachTracez(mux, tr)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	interests := reg.Counter("interests_total")
	hist := reg.Histogram("hop_seconds", nil)

	stop := make(chan struct{})
	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			interests.Inc()
			hist.Observe(float64(i%10) * 1e-5)
			sp := tr.StartCtx(TraceCtx{}, "interest", "/prov0/report/chunk0")
			sp.Event("bf_lookup", "hit")
			sp.End("forwarded", 0)
		}
	}()

	var scrapers sync.WaitGroup
	for _, path := range []string{"/metrics", "/statusz", "/tracez", "/tracez?format=json"} {
		for g := 0; g < 2; g++ {
			scrapers.Add(1)
			go func(path string) {
				defer scrapers.Done()
				for i := 0; i < 25; i++ {
					resp, err := http.Get(srv.URL + path)
					if err != nil {
						t.Error(err)
						return
					}
					if _, err := io.Copy(io.Discard, resp.Body); err != nil {
						t.Error(err)
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("%s -> %d", path, resp.StatusCode)
						return
					}
				}
			}(path)
		}
	}
	scrapers.Wait()
	close(stop)
	writers.Wait()
}
