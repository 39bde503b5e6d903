// /tracez: the fleet telemetry view over a node's flight recorder —
// recent, slowest, and NACKed traces, plus a per-trace hop-by-hop
// waterfall. Mounted on the admin mux next to /metrics and /statusz.
package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// tracezList caps for each section of the index page.
const (
	tracezRecent  = 20
	tracezSlowest = 10
	tracezNacked  = 10
)

// AttachTracez mounts the /tracez handler for tr on mux. The handler
// tolerates a nil tracer or a tracer without a flight recorder (it
// reports tracing as disabled), so commands can attach unconditionally.
//
//	/tracez                  index: recent / slowest / NACKed traces
//	/tracez?trace=<hex id>   one trace's hop-by-hop waterfall
//	/tracez?format=json      assembled traces as JSON
func AttachTracez(mux *http.ServeMux, tr *Tracer) {
	mux.HandleFunc("/tracez", func(w http.ResponseWriter, r *http.Request) {
		rec := tr.Recorder()
		if rec == nil {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, "tracing disabled: no flight recorder (run with -trace-ring > 0)")
			return
		}
		c := NewCollector()
		c.AddSnapshot(rec.Snapshot())

		if q := r.URL.Query().Get("trace"); q != "" {
			trace := c.Get(ParseHexID(q))
			if trace == nil {
				http.Error(w, fmt.Sprintf("trace %s not in flight recorder (ring holds last %d spans)", q, rec.Cap()), http.StatusNotFound)
				return
			}
			if r.URL.Query().Get("format") == "json" {
				writeTraceJSON(w, []*Trace{trace})
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			trace.Waterfall(w)
			return
		}

		traces := c.Traces()
		if r.URL.Query().Get("format") == "json" {
			writeTraceJSON(w, traces)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "tracez node=%s  spans recorded=%d  ring=%d/%d spans  traces=%d\n",
			tr.Node(), tr.Spans(), len(rec.Snapshot()), rec.Cap(), len(traces))
		fmt.Fprintln(w, "open one with /tracez?trace=<id>")

		fmt.Fprintf(w, "\n== recent (%d of %d) ==\n", min(tracezRecent, len(traces)), len(traces))
		for i, t := range traces {
			if i >= tracezRecent {
				break
			}
			writeTraceLine(w, t)
		}

		slow := append([]*Trace(nil), traces...)
		for i := 1; i < len(slow); i++ {
			for j := i; j > 0 && slow[j].Duration() > slow[j-1].Duration(); j-- {
				slow[j], slow[j-1] = slow[j-1], slow[j]
			}
		}
		fmt.Fprintf(w, "\n== slowest ==\n")
		for i, t := range slow {
			if i >= tracezSlowest {
				break
			}
			writeTraceLine(w, t)
		}

		fmt.Fprintf(w, "\n== nacked/dropped ==\n")
		n := 0
		for _, t := range traces {
			if !t.Nacked() {
				continue
			}
			writeTraceLine(w, t)
			if n++; n >= tracezNacked {
				break
			}
		}
		if n == 0 {
			fmt.Fprintln(w, "(none)")
		}
	})
}

// writeTraceLine prints one index row.
func writeTraceLine(w http.ResponseWriter, t *Trace) {
	fmt.Fprintf(w, "trace=%-16s hops=%d spans=%d dur=%-10s outcome=%s\n",
		HexID(t.ID), t.Hops(), len(t.Spans), t.Duration().Round(time.Microsecond), t.Outcome())
}

// writeTraceJSON renders assembled traces as JSON.
func writeTraceJSON(w http.ResponseWriter, traces []*Trace) {
	type jsonTrace struct {
		ID      string        `json:"trace"`
		Hops    int           `json:"hops"`
		DurUs   int64         `json:"dur_us"`
		Outcome string        `json:"outcome"`
		Spans   []*SpanRecord `json:"spans"`
	}
	out := make([]jsonTrace, 0, len(traces))
	for _, t := range traces {
		out = append(out, jsonTrace{
			ID:      HexID(t.ID),
			Hops:    t.Hops(),
			DurUs:   t.Duration().Microseconds(),
			Outcome: t.Outcome(),
			Spans:   t.Spans,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out) //nolint:errcheck // client gone mid-write
}
