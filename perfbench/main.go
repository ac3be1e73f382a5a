// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed wall-clock window, checks every simulated state
// bitwise against a reference computed outside the timed region, and
// prints the workload's metrics by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 1, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics, measured
// untraced. With --trace 1 the run also makes a traced pass and the
// metrics are the per-layer metrics; spans, self times and the tracing
// overhead are written beside the full results under .bench_build/.
//
// Build and run from the root of the repository:
//
//	bash perfbench/run.sh --workload dhfr --seed 1 --seconds 15 --trace 0
//
// BENCHMARK.json at the root lists the workloads and metrics; README.md
// in this directory says what each one measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// options is one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string

	// The self-test sets these: corruptRef flips one bit of every
	// reference digest, to prove that a wrong trajectory is counted as a
	// failure; cycles, when positive, replaces each simulation
	// workload's minimum number of measured MTS cycles per pass.
	corruptRef bool
	cycles     int
}

func main() {
	opt := options{outDir: filepath.Join(".bench_build", "perfbench")}
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&opt.seed, "seed", 1, "input seed (velocity seed; job seeds for service-mix)")
	flag.Float64Var(&opt.seconds, "seconds", 15, "length of one measured window, seconds")
	flag.IntVar(&trace, "trace", 0, "1 adds a traced pass and reports the per-layer metrics")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fatalf("--trace must be 0 or 1, got %d", trace)
	}
	opt.trace = trace == 1
	if opt.seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	rep, err := run(opt)
	if err != nil {
		fatalf("%v", err)
	}
	rep.print(os.Stdout)
	path, err := rep.save(opt.outDir)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("results: %s\n", path)
	line, err := json.Marshal(rep.summary())
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// workload is one named input set and the code that drives it.
type workload struct {
	name string
	run  func(b *bench) error
}

var workloads = []workload{
	{"dhfr", runDHFR},
	{"shard512", runShard512},
	{"service-mix", runServiceMix},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// run executes one workload and returns its report.
func run(opt options) (*report, error) {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == opt.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q (have %s)", opt.workload, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(opt.outDir, "state-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	b := &bench{
		opt:     opt,
		scratch: scratch,
		rep: &report{
			Workload: opt.workload,
			Seed:     opt.seed,
			Seconds:  opt.seconds,
			Traced:   opt.trace,
			Host:     hostFacts(),
		},
	}
	if opt.trace {
		b.tr = newTracer()
	}
	defer b.heap.done()
	if err := wl.run(b); err != nil {
		return nil, fmt.Errorf("%s: %w", opt.workload, err)
	}
	b.finish()
	return b.rep, nil
}

// host records the facts a result depends on besides the code.
type host struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func hostFacts() host {
	h := host{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			h.Commit = rev + dirty
		}
	}
	return h
}

// metric is one reported number. Samples is how many measurements the
// value summarizes (1 for a single measurement or an exact count).
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Note    string  `json:"note,omitempty"`
}

// check is one bitwise correctness verdict.
type check struct {
	What      string `json:"what"`
	Digest    string `json:"digest"`
	Reference string `json:"reference"`
	OK        bool   `json:"ok"`
	Detail    string `json:"detail,omitempty"`
}

// report is everything one invocation measured and checked.
type report struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	Host     host    `json:"host"`

	// EndToEnd holds the untraced end-to-end metrics, Layers the
	// per-layer metrics of the traced pass (empty when untraced).
	EndToEnd []metric `json:"end_to_end"`
	Layers   []metric `json:"per_layer,omitempty"`

	// Counts are exact counts over a fixed window of the run; the same
	// seed must reproduce them. Nondeterministic names every count that
	// differed from another run of the same seed.
	Counts           map[string]int64 `json:"counts"`
	Nondeterministic []string         `json:"nondeterministic,omitempty"`

	Checks []check `json:"checks"`

	// Info holds informational fields that are not gated, such as the
	// machine model's projection beside the measured rate.
	Info map[string]float64 `json:"info,omitempty"`

	// Overhead is traced minus untraced, per end-to-end metric, as a
	// share of the untraced value.
	Overhead map[string]float64 `json:"tracing_overhead,omitempty"`
	SelfMs   map[string]float64 `json:"self_ms,omitempty"`
	Spans    []span             `json:"spans,omitempty"`
}

// summary is the one-line result the last line of output carries.
type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) failed() int {
	n := 0
	for _, c := range r.Checks {
		if !c.OK {
			n++
		}
	}
	return n
}

func (r *report) summary() summary {
	s := summary{
		Attempted: len(r.Checks),
		Failed:    r.failed(),
		Metrics:   make(map[string]valueUnit),
	}
	s.Correct = s.Attempted > 0 && s.Failed == 0
	ms := r.EndToEnd
	if r.Traced {
		ms = r.Layers
	}
	for _, m := range ms {
		if gated(m.Name, r.Traced) {
			s.Metrics[m.Name] = valueUnit{Value: finite(m.Value), Unit: m.Unit}
		}
	}
	return s
}

// gated reports whether a metric belongs to the summary line: the
// end-to-end metrics every workload reports or, traced, the per-layer
// metrics every workload reports. BENCHMARK.json at the repository root
// lists the same names and units. Workload-specific metrics (shard.*,
// service.*, jobs_per_hour) are printed and saved but stay out of the
// summary, so every run of every workload emits the same names.
func gated(name string, traced bool) bool {
	set := endToEndUnits
	if traced {
		set = layerUnits
	}
	_, ok := set[name]
	return ok
}

var endToEndUnits = map[string]string{
	"ns_per_day":    "ns/day",
	"setup_s":       "s",
	"heap_mb":       "MB",
	"latency_s_p50": "s",
	"latency_s_p75": "s",
}

var layerUnits = map[string]string{
	"system.build_s":                  "s",
	"core.new_engine_s":               "s",
	"core.step_short_ms_p50":          "ms",
	"core.step_long_ms_p50":           "ms",
	"core.mesh_extra_ms":              "ms",
	"phase.pair-match_ms":             "ms",
	"phase.mesh-spread_ms":            "ms",
	"phase.mesh-interp_ms":            "ms",
	"phase.fft_ms":                    "ms",
	"phase.constraints_ms":            "ms",
	"htis.pairs_computed_per_step":    "count",
	"htis.match_efficiency":           "ratio",
	"core.mesh_interactions_per_step": "count",
	"fft.roundtrip_ms":                "ms",
	"core.checkpoint_bytes":           "B",
	"core.checkpoint_write_ms":        "ms",
	"ledger.append_commit_us":         "us",
}

// finite keeps JSON encodable: a latency of a failed job is +Inf (it
// misses every limit) and is reported as the largest float64.
func finite(v float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	if math.IsInf(v, -1) {
		return -math.MaxFloat64
	}
	return v
}

func (r *report) print(w io.Writer) {
	h := r.Host
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g traced=%v\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	fmt.Fprintf(w, "host: cpus=%d gomaxprocs=%d go=%s commit=%s %s/%s\n",
		h.CPUs, h.GOMAXPROCS, h.GoVersion, h.Commit, h.OS, h.Arch)
	printMetrics(w, "end to end (untraced)", r.EndToEnd)
	printMetrics(w, "per layer (traced pass)", r.Layers)
	if len(r.Info) > 0 {
		fmt.Fprintln(w, "informational:")
		for _, k := range sortedKeys(r.Info) {
			fmt.Fprintf(w, "  %-34s %.6g\n", k, r.Info[k])
		}
	}
	if len(r.SelfMs) > 0 {
		fmt.Fprintln(w, "self time by layer (traced run, ms):")
		for _, k := range sortedKeys(r.SelfMs) {
			fmt.Fprintf(w, "  %-34s %.3f\n", k, r.SelfMs[k])
		}
	}
	if len(r.Overhead) > 0 {
		fmt.Fprintln(w, "tracing overhead (traced - untraced, share of untraced):")
		for _, k := range sortedKeys(r.Overhead) {
			fmt.Fprintf(w, "  %-34s %+.4f\n", k, r.Overhead[k])
		}
	}
	fmt.Fprintln(w, "exact counts:")
	for _, k := range sortedKeys(r.Counts) {
		fmt.Fprintf(w, "  %-34s %d\n", k, r.Counts[k])
	}
	for _, n := range r.Nondeterministic {
		fmt.Fprintf(w, "NONDETERMINISM: %s\n", n)
	}
	for _, c := range r.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED"
		}
		if c.Digest != "" {
			verdict = fmt.Sprintf("%s vs reference %s: %s", c.Digest, c.Reference, verdict)
		}
		fmt.Fprintf(w, "check %-36s %s (%s)\n", c.What, verdict, c.Detail)
	}
	fmt.Fprintf(w, "failed_ratio %.4f (%d of %d checks)\n",
		float64(r.failed())/math.Max(1, float64(len(r.Checks))), r.failed(), len(r.Checks))
}

func printMetrics(w io.Writer, title string, ms []metric) {
	if len(ms) == 0 {
		return
	}
	fmt.Fprintf(w, "%s:\n", title)
	for _, m := range ms {
		fmt.Fprintf(w, "  %-34s %14.6g %-8s n=%-4d %s\n", m.Name, m.Value, m.Unit, m.Samples, m.Note)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// save writes the full report, spans included, and returns its path.
func (r *report) save(dir string) (string, error) {
	trace := 0
	if r.Traced {
		trace = 1
	}
	path := filepath.Join(dir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, trace))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", fmt.Errorf("encoding report: %w", err)
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
