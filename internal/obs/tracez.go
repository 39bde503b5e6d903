// /tracez: the fleet telemetry view over a node's flight recorder —
// recent, slowest, and NACKed traces, plus a per-trace hop-by-hop
// waterfall. Mounted on the admin mux next to /metrics and /statusz.
package obs

import (
	"fmt"
	"net/http"
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

		traces := c.Traces()
		q := r.URL.Query().Get("trace")
		if q != "" {
			trace := c.Get(ParseHexID(q))
			if trace == nil {
				http.Error(w, fmt.Sprintf("trace %s not in flight recorder (ring holds last %d spans)", q, rec.Cap()), http.StatusNotFound)
				return
			}
			traces = []*Trace{trace}
		}
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			WriteTracesJSON(w, traces) //nolint:errcheck // client gone mid-write
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if q != "" {
			traces[0].Waterfall(w)
			return
		}
		fmt.Fprintf(w, "tracez node=%s  spans recorded=%d  ring=%d/%d spans  traces=%d\n",
			tr.Node(), tr.Spans(), len(rec.Snapshot()), rec.Cap(), len(traces))
		fmt.Fprintln(w, "open one with /tracez?trace=<id>")

		fmt.Fprintf(w, "\n== recent (%d of %d) ==\n", min(tracezRecent, len(traces)), len(traces))
		WriteTraceLines(w, traces[:min(tracezRecent, len(traces))]...)

		slow := append([]*Trace(nil), traces...)
		SlowestFirst(slow)
		fmt.Fprintf(w, "\n== slowest ==\n")
		WriteTraceLines(w, slow[:min(tracezSlowest, len(slow))]...)

		fmt.Fprintf(w, "\n== nacked/dropped ==\n")
		nacked := NackedOnly(traces)
		WriteTraceLines(w, nacked[:min(tracezNacked, len(nacked))]...)
		if len(nacked) == 0 {
			fmt.Fprintln(w, "(none)")
		}
	})
}
