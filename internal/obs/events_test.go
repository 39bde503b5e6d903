package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestEventsRingAndSnapshot(t *testing.T) {
	ev := NewEvents("n0", 4)
	for i := 0; i < 6; i++ {
		ev.Emit(EventFaceUp, i, "tcp", 0)
	}
	if ev.Total() != 6 {
		t.Fatalf("total = %d, want 6", ev.Total())
	}
	snap := ev.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot len = %d, want 4", len(snap))
	}
	// Oldest first, only the newest 4 survive (seqs 3..6, faces 2..5).
	for i, e := range snap {
		if want := uint64(3 + i); e.Seq != want {
			t.Fatalf("snap[%d].Seq = %d, want %d", i, e.Seq, want)
		}
		if e.Face != 2+i {
			t.Fatalf("snap[%d].Face = %d, want %d", i, e.Face, 2+i)
		}
		if e.Node != "n0" || e.Type != EventFaceUp {
			t.Fatalf("snap[%d] = %+v", i, e)
		}
	}
}

func TestEventsNilSafe(t *testing.T) {
	var ev *Events
	ev.Emit(EventFaceDown, 1, "", 0) // must not panic
	if got := ev.Snapshot(); got != nil {
		t.Fatalf("nil snapshot = %v", got)
	}
	if ev.Total() != 0 || ev.Node() != "" {
		t.Fatal("nil accessors not zero")
	}
	ch, cancel := ev.Subscribe(1)
	cancel()
	if _, ok := <-ch; ok {
		t.Fatal("nil Subscribe channel not closed")
	}
	var g *BurstGate
	if g.Add(5) != 0 {
		t.Fatal("nil BurstGate.Add != 0")
	}
}

func TestEventsSubscribe(t *testing.T) {
	ev := NewEvents("n0", 8)
	ch, cancel := ev.Subscribe(4)
	defer cancel()
	ev.Emit(EventRevocation, -1, "v3", 17)
	select {
	case e := <-ch:
		if e.Type != EventRevocation || e.Value != 17 || e.Attr != "v3" {
			t.Fatalf("got %+v", e)
		}
	case <-time.After(time.Second):
		t.Fatal("subscriber saw nothing")
	}
	cancel()
	ev.Emit(EventRevocation, -1, "v4", 1)
	select {
	case e, ok := <-ch:
		if ok {
			t.Fatalf("event after cancel: %+v", e)
		}
	default:
	}
}

func TestEventsSlogBridge(t *testing.T) {
	ev := NewEvents("edge-0", 8)
	var buf bytes.Buffer
	var mu sync.Mutex
	ev.SetLogger(slog.New(slog.NewTextHandler(&lockedWriter{w: &buf, mu: &mu}, nil)))
	ev.Emit(EventShedBurst, -1, "", 42)
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "shed_burst") || !strings.Contains(out, "level=WARN") {
		t.Fatalf("slog bridge output: %q", out)
	}
	if !strings.Contains(out, "value=42") || !strings.Contains(out, "node=edge-0") {
		t.Fatalf("slog bridge output: %q", out)
	}
}

type lockedWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func TestBurstGate(t *testing.T) {
	g := &BurstGate{Interval: 50 * time.Millisecond}
	if got := g.Add(1); got != 1 {
		t.Fatalf("first Add = %d, want immediate emit of 1", got)
	}
	total := uint64(0)
	for i := 0; i < 10; i++ {
		total += g.Add(1)
	}
	if total != 0 {
		t.Fatalf("gate leaked %d during hold-down", total)
	}
	time.Sleep(60 * time.Millisecond)
	if got := g.Add(1); got != 11 {
		t.Fatalf("post-interval Add = %d, want accumulated 11", got)
	}
}

func TestEventzHandler(t *testing.T) {
	ev := NewEvents("n1", 16)
	ev.Emit(EventEpochRotate, -1, "", 2)
	ev.Emit(EventFaceDown, 3, "read: EOF", 0)
	mux := http.NewServeMux()
	AttachEventz(mux, ev)

	// Default JSON document.
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/eventz", nil))
	var doc struct {
		Node   string  `json:"node"`
		Total  uint64  `json:"total"`
		Events []Event `json:"events"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatalf("eventz json: %v", err)
	}
	if doc.Node != "n1" || doc.Total != 2 || len(doc.Events) != 2 {
		t.Fatalf("eventz doc = %+v", doc)
	}
	if doc.Events[1].Type != EventFaceDown || doc.Events[1].Face != 3 {
		t.Fatalf("eventz events = %+v", doc.Events)
	}

	// limit + jsonl.
	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/eventz?limit=1&format=jsonl", nil))
	lines := 0
	sc := bufio.NewScanner(bytes.NewReader(rr.Body.Bytes()))
	var last Event
	for sc.Scan() {
		lines++
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("jsonl line: %v", err)
		}
	}
	if lines != 1 || last.Type != EventFaceDown {
		t.Fatalf("jsonl limit=1: %d lines, last %+v", lines, last)
	}
}

func TestEventzFollowStreams(t *testing.T) {
	ev := NewEvents("n2", 16)
	ev.Emit(EventUplinkUp, 1, "127.0.0.1:9", 0)
	mux := http.NewServeMux()
	AttachEventz(mux, ev)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/eventz?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)

	line, err := rd.ReadBytes('\n')
	if err != nil {
		t.Fatalf("replay line: %v", err)
	}
	var e Event
	if json.Unmarshal(line, &e) != nil || e.Type != EventUplinkUp {
		t.Fatalf("replay event = %+v", e)
	}

	// A live event emitted after the stream started must arrive too.
	done := make(chan Event, 1)
	go func() {
		line, err := rd.ReadBytes('\n')
		if err != nil {
			return
		}
		var e Event
		if json.Unmarshal(line, &e) == nil {
			done <- e
		}
	}()
	time.Sleep(50 * time.Millisecond) // let the handler subscribe
	ev.Emit(EventUplinkDown, 1, "read: EOF", 0)
	select {
	case e := <-done:
		if e.Type != EventUplinkDown {
			t.Fatalf("live event = %+v", e)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("live event never streamed")
	}
}
