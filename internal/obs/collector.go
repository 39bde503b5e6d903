// Cross-node trace assembly: a Collector groups finished spans by trace
// ID into end-to-end path timelines, whether they come from a node's
// in-memory flight recorder (/tracez) or from JSONL span files gathered
// off several machines (cmd/tactictrace).
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Trace is one assembled end-to-end request path: every span recorded
// under one trace ID, ordered hop by hop.
type Trace struct {
	// ID is the trace ID.
	ID uint64
	// Spans are the trace's spans sorted by hop, then start time, then
	// sequence — the packet's path order (Interest hops ascend, then the
	// Data hops continue ascending on the return path).
	Spans []*SpanRecord
}

// Start returns the earliest span start (UnixNano).
func (tr *Trace) Start() int64 {
	min := int64(0)
	for i, s := range tr.Spans {
		if i == 0 || s.StartNano < min {
			min = s.StartNano
		}
	}
	return min
}

// Duration returns the wall span of the whole trace: earliest start to
// latest end across all spans.
func (tr *Trace) Duration() time.Duration {
	var min, max int64
	for i, s := range tr.Spans {
		end := s.StartNano + s.DurMicro*int64(time.Microsecond)
		if i == 0 {
			min, max = s.StartNano, end
			continue
		}
		if s.StartNano < min {
			min = s.StartNano
		}
		if end > max {
			max = end
		}
	}
	return time.Duration(max - min)
}

// Nacked reports whether any span ended in a NACK or drop outcome.
func (tr *Trace) Nacked() bool {
	for _, s := range tr.Spans {
		if strings.Contains(s.Outcome, "nack") || strings.HasPrefix(s.Outcome, "drop") {
			return true
		}
	}
	return false
}

// Outcome returns the final outcome on the path — the outcome of the
// highest-hop span (ties broken by latest start).
func (tr *Trace) Outcome() string {
	if len(tr.Spans) == 0 {
		return ""
	}
	return tr.Spans[len(tr.Spans)-1].Outcome
}

// Hops returns the highest hop index seen plus one.
func (tr *Trace) Hops() int {
	max := -1
	for _, s := range tr.Spans {
		if s.Hop > max {
			max = s.Hop
		}
	}
	return max + 1
}

// Collector accumulates spans and assembles them into Traces. It is not
// safe for concurrent use; callers feed it from one goroutine (the
// /tracez handler builds a fresh one per request from a recorder
// snapshot).
type Collector struct {
	byID map[uint64][]*SpanRecord
}

// NewCollector creates an empty collector.
func NewCollector() *Collector {
	return &Collector{byID: make(map[uint64][]*SpanRecord)}
}

// Add feeds one finished span. Spans without a trace ID are ignored.
func (c *Collector) Add(rec *SpanRecord) {
	id := ParseHexID(rec.Trace)
	if id == 0 {
		return
	}
	c.byID[id] = append(c.byID[id], rec)
}

// AddSnapshot feeds every span from a flight-recorder snapshot.
func (c *Collector) AddSnapshot(recs []*SpanRecord) {
	for _, rec := range recs {
		c.Add(rec)
	}
}

// ReadSpans feeds JSONL span lines (a tracer's -trace output) from rd
// and returns the number of spans read. Blank lines are skipped; a
// malformed line aborts with its line number.
func (c *Collector) ReadSpans(rd io.Reader) (int, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo, read := 0, 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		rec := &SpanRecord{}
		if err := json.Unmarshal(line, rec); err != nil {
			return read, fmt.Errorf("span line %d: %w", lineNo, err)
		}
		c.Add(rec)
		read++
	}
	return read, sc.Err()
}

// sortSpans orders a trace's spans in path order.
func sortSpans(spans []*SpanRecord) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Hop != spans[j].Hop {
			return spans[i].Hop < spans[j].Hop
		}
		if spans[i].StartNano != spans[j].StartNano {
			return spans[i].StartNano < spans[j].StartNano
		}
		return spans[i].Seq < spans[j].Seq
	})
}

// Get assembles the trace with the given ID (nil when unknown).
func (c *Collector) Get(id uint64) *Trace {
	spans, ok := c.byID[id]
	if !ok {
		return nil
	}
	sorted := append([]*SpanRecord(nil), spans...)
	sortSpans(sorted)
	return &Trace{ID: id, Spans: sorted}
}

// Traces assembles every trace, most recent first.
func (c *Collector) Traces() []*Trace {
	out := make([]*Trace, 0, len(c.byID))
	for id := range c.byID {
		out = append(out, c.Get(id))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start() > out[j].Start() })
	return out
}

// SlowestFirst orders traces by duration, slowest first; traces of equal
// duration keep their order.
func SlowestFirst(traces []*Trace) {
	sort.SliceStable(traces, func(i, j int) bool { return traces[i].Duration() > traces[j].Duration() })
}

// NackedOnly returns the traces that ended a span in a NACK or a drop, in
// their order.
func NackedOnly(traces []*Trace) []*Trace {
	var kept []*Trace
	for _, t := range traces {
		if t.Nacked() {
			kept = append(kept, t)
		}
	}
	return kept
}

// WriteTraceLines prints each trace's index row: the line tactictrace and
// /tracez list a trace with.
func WriteTraceLines(w io.Writer, traces ...*Trace) {
	for _, t := range traces {
		fmt.Fprintf(w, "trace=%-16s hops=%d spans=%d dur=%-10s outcome=%s\n",
			HexID(t.ID), t.Hops(), len(t.Spans), t.Duration().Round(time.Microsecond), t.Outcome())
	}
}

// WriteTracesJSON renders assembled traces as one indented JSON array.
func WriteTracesJSON(w io.Writer, traces []*Trace) error {
	type jsonTrace struct {
		ID      string        `json:"trace"`
		Hops    int           `json:"hops"`
		DurUs   int64         `json:"dur_us"`
		Outcome string        `json:"outcome"`
		Spans   []*SpanRecord `json:"spans"`
	}
	out := make([]jsonTrace, 0, len(traces))
	for _, t := range traces {
		out = append(out, jsonTrace{ID: HexID(t.ID), Hops: t.Hops(), DurUs: t.Duration().Microseconds(), Outcome: t.Outcome(), Spans: t.Spans})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// waterfallWidth is the timeline bar width in characters.
const waterfallWidth = 40

// Waterfall renders the trace's hop-by-hop timeline as text: one row
// per span with its offset bar scaled to the trace duration, followed
// by the span's stage events.
func (tr *Trace) Waterfall(w io.Writer) {
	total := tr.Duration()
	fmt.Fprintf(w, "trace %s  spans=%d hops=%d dur=%s outcome=%s\n",
		HexID(tr.ID), len(tr.Spans), tr.Hops(), total.Round(time.Microsecond), tr.Outcome())
	start := tr.Start()
	for _, s := range tr.Spans {
		bar := timelineBar(s.StartNano-start, s.DurMicro*int64(time.Microsecond), int64(total))
		role := s.Role
		if role == "" {
			role = "-"
		}
		fmt.Fprintf(w, "  hop %d  %-12s %-8s %-8s %8dus  |%s|  %s\n",
			s.Hop, s.Node, role, s.Kind, s.DurMicro, bar, s.Outcome)
		for _, ev := range s.Events {
			detail := ev.Detail
			if detail != "" {
				detail = "  " + detail
			}
			if ev.DurMicros != 0 {
				fmt.Fprintf(w, "         · %-12s +%dus (%dus)%s\n", ev.Stage, ev.AtMicros, ev.DurMicros, detail)
			} else {
				fmt.Fprintf(w, "         · %-12s +%dus%s\n", ev.Stage, ev.AtMicros, detail)
			}
		}
	}
}

// timelineBar renders a fixed-width track with the span's active
// interval filled.
func timelineBar(offsetNano, durNano, totalNano int64) string {
	track := [waterfallWidth]byte{}
	for i := range track {
		track[i] = ' '
	}
	if totalNano <= 0 {
		totalNano = 1
	}
	from := int(offsetNano * waterfallWidth / totalNano)
	to := int((offsetNano + durNano) * waterfallWidth / totalNano)
	if from >= waterfallWidth {
		from = waterfallWidth - 1
	}
	if to <= from {
		to = from + 1
	}
	if to > waterfallWidth {
		to = waterfallWidth
	}
	for i := from; i < to; i++ {
		track[i] = '='
	}
	return string(track[:])
}
