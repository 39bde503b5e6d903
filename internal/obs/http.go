// HTTP exposition: /metrics (Prometheus text format), /statusz (JSON
// snapshot), and net/http/pprof, mounted together on one admin mux —
// the handler behind tacticd's -admin flag, in every role.
package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// NewAdminMux builds the admin endpoint for a process: Prometheus
// metrics from reg at /metrics, a JSON document from statusz at
// /statusz (uptime and scalar metrics are merged in when reg is
// non-nil), and the pprof handlers under /debug/pprof/. statusz may be
// nil.
func NewAdminMux(reg *Registry, statusz func() any) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w) //nolint:errcheck // client gone mid-scrape
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, _ *http.Request) {
		doc := map[string]any{}
		if reg != nil {
			doc["uptime_seconds"] = reg.Uptime().Seconds()
			doc["metrics"] = reg.Snapshot()
		}
		if statusz != nil {
			doc["status"] = statusz()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc) //nolint:errcheck // client gone mid-write
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve listens on addr and serves mux in a background goroutine,
// returning the bound listener (close it to stop). Commands compose
// NewAdminMux + Attach* (eventz, healthz, tracez) and hand the result
// here.
func Serve(addr string, mux *http.ServeMux) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	// Header/idle timeouts bound slow-client (slowloris) connections;
	// there is deliberately no WriteTimeout so long pprof profile and
	// trace captures are not cut off mid-stream.
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go srv.Serve(ln) //nolint:errcheck // exits when ln closes
	return ln, nil
}
