package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestSpanEmitsJSONLine(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer("edge-0", 1, &buf)
	sp := tr.StartCtx(TraceCtx{}, "interest", "/prov0/report/chunk0")
	sp.Event("precheck", "ok")
	sp.Event("bf_lookup", "hit")
	sp.Event("flag", "F=0.0001")
	sp.End("forwarded")

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
			sp.End("ok")
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
	sp.End("ok")
	if tr.Spans() != 0 {
		t.Error("nil tracer counted spans")
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
				sp.End("ok")
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
