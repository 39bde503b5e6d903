// Command tacticlive is the repository's live-path benchmark: it boots
// producer, core and edge in this process over loopback sockets, drives
// them from a closed-loop load generator that checks every reply, and
// prints every metric by name with its unit. See README.md.
//
//	bash bench/run.sh                                  all workloads, untraced
//	bash bench/run.sh -workload edge_hit_tcp -seed 7   one workload
//	bash bench/run.sh -trace 1                         per-layer metrics and spans
//	bash bench/run.sh -repeat 6                        A/A table
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

const (
	defaultSeconds = 30 // BENCHMARK.json run_seconds: 12 s light + 18 s loaded
	setUpRuns      = 3  // set-ups per untraced run; setup_s is the fastest
	warmup         = 2 * time.Second
)

// result is one workload's run: the driver's last-line object plus the
// provenance ROADMAP 1(c) asks every number to carry.
type result struct {
	Workload   string             `json:"workload"`
	Traced     bool               `json:"traced"`
	Seed       int64              `json:"seed"`
	Ops        uint64             `json:"ops"`
	Failed     uint64             `json:"failed"`
	Correct    bool               `json:"correct"`
	Violations []string           `json:"violations,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
	Units      map[string]string  `json:"units"`
	// Unbounded are figures of the untraced run that are printed but are
	// not end-to-end metrics, because they move with the host: the 90th
	// percentile of the light phase, the CPU time per fetch of the loaded
	// phase, and the time-based quantities over every window of their
	// phase, disturbed ones included. A change that slows
	// only some windows shows in the latter and not in the best decile.
	Unbounded  []extra    `json:"unbounded,omitempty"`
	Provenance provenance `json:"provenance"`

	order []string // metric names in reporting order
}

type extra struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

func (r *result) set(def metricDef, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]float64)
		r.Units = make(map[string]string)
	}
	if _, ok := r.Metrics[def.name]; !ok {
		r.order = append(r.order, def.name)
	}
	r.Metrics[def.name] = v
	r.Units[def.name] = def.unit
}

type provenance struct {
	Commit        string  `json:"commit"`
	GoVersion     string  `json:"go_version"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	NumCPU        int     `json:"nproc"`
	CPUModel      string  `json:"cpu_model"`
	Kernel        string  `json:"kernel"`
	Connections   int     `json:"connections"`
	LightSeconds  float64 `json:"light_seconds"`
	LoadedSeconds float64 `json:"loaded_seconds"`
	WarmupSeconds float64 `json:"warmup_seconds"`
	Interface     string  `json:"interface"`
}

func firstLine(data []byte, err error) string {
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(strings.TrimSpace(string(data)), "\n")
	return line
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func newProvenance(light, loaded time.Duration) provenance {
	return provenance{
		Commit:        firstLine(exec.Command("git", "rev-parse", "HEAD").Output()),
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		CPUModel:      cpuModel(),
		Kernel:        firstLine(os.ReadFile("/proc/sys/kernel/osrelease")),
		Connections:   connections(),
		LightSeconds:  light.Seconds(),
		LoadedSeconds: loaded.Seconds(),
		WarmupSeconds: warmup.Seconds(),
		Interface:     "loopback (127.0.0.1), one process",
	}
}

// phases splits the measured seconds of an untraced run 2:3 between the
// light and the loaded phase.
func phases(seconds int) (light, loaded time.Duration) {
	total := time.Duration(seconds) * time.Second
	light = total * 2 / 5
	return light, total - light
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// runUntraced measures the end-to-end metrics of one workload. Tracing is
// off everywhere: no Config.Tracer, no spans in the load generator.
func runUntraced(wl workload, seed int64, seconds int) (*result, error) {
	light, loaded := phases(seconds)
	res := &result{Workload: wl.name, Seed: seed, Provenance: newProvenance(light, loaded)}

	// Set up several times and report the fastest: one set-up is a second of
	// crypto and fresh memory, a single sample of it swings with whatever
	// else the host did in that second, and the host only ever adds to it
	// (across ten runs the fastest of three spread by 11-15 %, their median
	// by 14-20 %). The last rig is the one measured.
	var lg *loadgen
	var setups []float64
	for i := 0; i < setUpRuns; i++ {
		if lg != nil {
			lg.r.close()
		}
		var took time.Duration
		var err error
		if lg, took, err = setUp(wl, seed, false); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer lg.r.close()
	runtime.GC() // the discarded worlds are garbage; collect them before timing

	lightStats, lightParts, err := lg.timed(lightWindow, warmup, light)
	if err != nil {
		return nil, err
	}
	loadedStats, loadedParts, err := lg.timed(loadedWindow, warmup, loaded)
	if err != nil {
		return nil, err
	}

	res.Ops = lightStats.counts.ops + loadedStats.counts.ops
	res.Failed = lightStats.counts.failed + loadedStats.counts.failed
	res.Violations = append(wl.violations("light", lightStats), wl.violations("loaded", loadedStats)...)
	res.Correct = len(res.Violations) == 0
	// Times and rates are the best decile of half-second windows (see
	// bestDecile); allocations are counts and use the whole phase.
	p50 := func(p phaseStats) float64 { return percentile(p.lat, 0.50) / 1e3 }
	p90 := func(p phaseStats) float64 { return percentile(p.lat, 0.90) / 1e3 }
	values := []float64{
		slices.Min(setups),
		bestDecile(loadedParts, true, phaseStats.fetchRate),
		bestDecile(lightParts, false, p50),
		loadedStats.perFetch(loadedStats.mallocs),
		loadedStats.perFetch(loadedStats.allocBytes),
	}
	for i, def := range endToEnd {
		res.set(def, values[i])
	}
	res.Unbounded = []extra{
		{"light_p90_us", "us", bestDecile(lightParts, false, p90)},
		{"cpu_us_per_fetch", "us", bestDecile(loadedParts, false, phaseStats.cpuMicros)},
		{"whole_phase.fetch_rate", "1/s", loadedStats.fetchRate()},
		{"whole_phase.light_p50_us", "us", p50(lightStats)},
		{"whole_phase.light_p90_us", "us", p90(lightStats)},
		{"whole_phase.cpu_us_per_fetch", "us", loadedStats.cpuMicros()},
	}
	return res, nil
}

// print writes one workload's metrics, one per line, by name and unit.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "%s seed=%d ops=%d failed=%d correct=%v\n", r.Workload, r.Seed, r.Ops, r.Failed, r.Correct)
	for _, name := range r.order {
		fmt.Fprintf(w, "  %-22s %-42s %16.4f %s\n", r.Workload, name, r.Metrics[name], r.Units[name])
	}
	for _, x := range r.Unbounded {
		fmt.Fprintf(w, "  %-22s %-42s %16.4f %s (no bound)\n", r.Workload, x.Name, x.Value, x.Unit)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  VIOLATION %s\n", v)
	}
}

// driverLine is the object the pipeline's driver reads from the last line
// of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// lastLine folds the results into the driver's object. With one workload
// the metric names are the ones BENCHMARK.json lists; with several each
// is prefixed with its workload.
func lastLine(results []*result) driverLine {
	line := driverLine{Correct: true, Metrics: make(map[string]driverValue)}
	for _, r := range results {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Ops
		line.Failed += r.Failed
		for _, name := range r.order {
			key := name
			if len(results) > 1 {
				key = r.Workload + "." + name
			}
			line.Metrics[key] = driverValue{r.Metrics[name], r.Units[name]}
		}
	}
	return line
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tacticlive", flag.ContinueOnError)
	workloadName := fs.String("workload", "all", "workload to run: all, or one of edge_hit_tcp, full_path_udp, tag_churn_tcp")
	seed := fs.Int64("seed", 1, "seed of the request schedule: name order, tag order, forged positions")
	seconds := fs.Int("seconds", defaultSeconds, "measured seconds per workload, split 2:3 between the light and the loaded phase; the pipeline passes BENCHMARK.json's run_seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run: per-layer metrics, spans written to -out (a number, because the pipeline passes --trace 0 or --trace 1)")
	repeat := fs.Int("repeat", 1, "A/A mode: run the untraced benchmark this many times (seeds seed, seed+1, ...) and compare the halves")
	out := fs.String("out", "bench/out", "directory for result JSON and trace files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("-seconds and -repeat must be at least 1, -trace 0 or 1")
	}
	selected := workloads
	if *workloadName != "all" {
		wl, ok := workloadByName(*workloadName)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workloadName)
		}
		selected = []workload{wl}
	}
	if *repeat > 1 {
		if *trace == 1 {
			return errors.New("-repeat compares end-to-end metrics; run it without -trace")
		}
		return runRepeat(selected, *seed, *seconds, *repeat, stdout)
	}

	var results []*result
	for _, wl := range selected {
		var res *result
		var err error
		if *trace == 1 {
			res, err = runTraced(wl, *seed, *seconds, *out)
		} else {
			res, err = runUntraced(wl, *seed, *seconds)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		res.print(stdout)
		path := filepath.Join(*out, fmt.Sprintf("result-%s-trace%d.json", wl.name, *trace))
		if err := writeJSON(path, res); err != nil {
			return err
		}
		results = append(results, res)
	}
	line := lastLine(results)
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", data)
	if !line.Correct {
		return errors.New("a correctness check or workload invariant failed; see the VIOLATION lines")
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tacticlive:", err)
		os.Exit(1)
	}
}
