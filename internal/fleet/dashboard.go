package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"

	"github.com/tactic-icn/tactic/internal/obs"
)

// Attach mounts the poller's HTTP surface on mux: /fleetz (the latest
// merged snapshot as JSON) and / (a plain-text terminal dashboard —
// `watch curl -s host:port/` is the whole UI).
func (p *Poller) Attach(mux *http.ServeMux) {
	mux.HandleFunc("/fleetz", func(w http.ResponseWriter, _ *http.Request) {
		snap := p.Latest()
		if snap == nil {
			http.Error(w, "no poll completed yet", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(snap) //nolint:errcheck // client gone mid-write
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		p.WriteDashboard(w) //nolint:errcheck // client gone mid-write
	})
}

// WriteDashboard renders the latest snapshot as a fixed-width text
// dashboard.
func (p *Poller) WriteDashboard(w io.Writer) error {
	snap := p.Latest()
	if snap == nil {
		_, err := fmt.Fprintln(w, "tacticmon: no poll completed yet")
		return err
	}
	fmt.Fprintf(w, "tacticmon fleet=%s at=%s nodes=%d\n\n", snap.Worst, snap.At.Format("15:04:05"), len(snap.Nodes))
	fmt.Fprintf(w, "%-12s %-10s %10s %10s %10s %8s %6s\n", "NODE", "STATUS", "INTEREST/S", "SHEDS/S", "VERIFY/S", "EPOCH", "FACES")
	for i := range snap.Nodes {
		ns := &snap.Nodes[i]
		if ns.Err != "" {
			fmt.Fprintf(w, "%-12s %-10s %s\n", ns.Node, "DOWN", ns.Err)
			continue
		}
		fmt.Fprintf(w, "%-12s %-10s %10.1f %10.1f %10.1f %8.0f %6.0f\n",
			ns.Node, nodeStatus(ns),
			ns.Rates[obs.MetricInterests],
			ns.Rates[obs.MetricVerifySheds],
			ns.Rates[obs.MetricVerifications],
			familyValue(ns.Series, obs.MetricBFEpoch),
			familyValue(ns.Series, obs.MetricFaces))
	}
	if len(snap.Alerts) > 0 {
		fmt.Fprintf(w, "\nALERTS\n")
		for _, a := range snap.Alerts {
			fmt.Fprintf(w, "  %-16s %-12s %s\n", a.Rule, a.Node, a.Detail)
		}
	}
	for i := range snap.Nodes {
		ns := &snap.Nodes[i]
		if len(ns.Faces) == 0 {
			continue
		}
		fmt.Fprintf(w, "\nFACES %s\n", ns.Node)
		for _, fr := range ns.Faces {
			fmt.Fprintf(w, "  %-8s %-12s in=%-10.0f out=%-10.0f\n", fr.Face, fr.Link, fr.FramesIn, fr.FramesOut)
		}
	}
	var events int
	for i := range snap.Nodes {
		events += len(snap.Nodes[i].Events)
	}
	if events > 0 {
		fmt.Fprintf(w, "\nRECENT EVENTS\n")
		for i := range snap.Nodes {
			ns := &snap.Nodes[i]
			for _, e := range ns.Events {
				fmt.Fprintf(w, "  %s %-12s %-18s face=%-3d %s", e.Time.Format("15:04:05"), ns.Node, e.Type, e.Face, e.Attr)
				if e.Value != 0 {
					fmt.Fprintf(w, " value=%d", e.Value)
				}
				fmt.Fprintln(w)
			}
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// familyValue sums a family out of a rendered-key series map.
func familyValue(series map[string]float64, family string) float64 {
	var sum float64
	for k, v := range series {
		if k == family || strings.HasPrefix(k, family+"{") {
			sum += v
		}
	}
	return sum
}

// Archiver appends one JSON line per fleet snapshot to a file — the
// periodic archive a post-mortem replays (`jq` over JSONL).
type Archiver struct {
	mu sync.Mutex
	w  io.WriteCloser
}

// NewArchiver opens (appending) the archive file.
func NewArchiver(path string) (*Archiver, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Archiver{w: f}, nil
}

// Append writes one snapshot as a JSONL record.
func (a *Archiver) Append(snap *FleetSnapshot) error {
	if a == nil || snap == nil {
		return nil
	}
	line, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	_, err = a.w.Write(append(line, '\n'))
	return err
}

// Close closes the archive file.
func (a *Archiver) Close() error {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.w.Close()
}
