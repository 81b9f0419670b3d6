// Command qbench is the repository benchmark. One invocation runs one
// workload in a fresh process, checks every output it produces, and prints
// its metrics as the last line of standard output:
//
//	qbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the workload's end-to-end metrics; with
// --trace 1 it replays the same calls with spans around every call into a
// layer and reports the per-layer metrics. README.md lists the workloads
// and what each metric is for; run.sh builds and runs it from a checkout.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// refSeed is the seed whose outputs reference.json pins.
const refSeed = 1

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"paper-figures": runFigures,
	"sim-sweep":     runSweep,
	"mesh-1024":     runMesh,
	"serve-mix":     runServe,
}

// endToEnd lists the end-to-end metrics every workload reports with
// tracing off. Each is defined on every workload: wall_s is the time of
// one unit of the workload's work, whatever that unit is.
var endToEnd = []string{"setup_s", "wall_s", "peak_rss_mb", "ok_frac"}

// perLayer lists the per-layer metrics every traced run reports; a layer a
// workload never calls reads zero.
var perLayer = []string{
	"noc.scenario_s", "routing.build_s",
	"traffic.tables_s", "traffic.tables_mb", "traffic.reset_s",
	"core.predict_s", "core.predict_calls", "core.iterations", "core.unconverged",
	"core.model_err_unicast_pct", "core.model_err_multicast_pct",
	"experiments.satrate_s", "experiments.pool_efficiency",
	"wormhole.new_s", "wormhole.run_s", "wormhole.events", "wormhole.ns_per_event",
	"wormhole.completed", "wormhole.saturated_runs",
	"noc.sweep_s", "noc.sweep_efficiency",
	"service.cache_ms", "service.store_ms", "service.compute_ms", "service.hit_ratio",
	"service.coalesced", "service.evaluations", "service.refused",
	"store.hits", "store.errors", "store.quarantined",
	"http.read_overhead_ms", "http.compute_overhead_ms", "obs.trace_get_ms",
	"runtime.alloc_mb", "runtime.gc_cycles", "runtime.gc_pause_ms",
	"loadgen.lag_ms", "loadgen.sent", "loadgen.max_rps",
	"loadgen.read_p50_ms", "loadgen.compute_p50_ms", "loadgen.read_p99_ms", "loadgen.compute_p99_ms",
	"trace.overhead_pct",
}

// units gives the unit of every metric, end-to-end and per-layer.
var units = map[string]string{
	"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio",

	"noc.scenario_s": "s", "routing.build_s": "s",
	"traffic.tables_s": "s", "traffic.tables_mb": "MB", "traffic.reset_s": "s",
	"core.predict_s": "s", "core.predict_calls": "count", "core.iterations": "count",
	"core.unconverged":           "count",
	"core.model_err_unicast_pct": "%", "core.model_err_multicast_pct": "%",
	"experiments.satrate_s": "s", "experiments.pool_efficiency": "ratio",
	"wormhole.new_s": "s", "wormhole.run_s": "s", "wormhole.events": "count",
	"wormhole.ns_per_event": "ns", "wormhole.completed": "count",
	"wormhole.saturated_runs": "count",
	"noc.sweep_s":             "s", "noc.sweep_efficiency": "ratio",
	"service.cache_ms": "ms", "service.store_ms": "ms", "service.compute_ms": "ms",
	"service.hit_ratio": "ratio", "service.coalesced": "count",
	"service.evaluations": "count", "service.refused": "count",
	"store.hits": "count", "store.errors": "count", "store.quarantined": "count",
	"http.read_overhead_ms": "ms", "http.compute_overhead_ms": "ms", "obs.trace_get_ms": "ms",
	"runtime.alloc_mb": "MB", "runtime.gc_cycles": "count", "runtime.gc_pause_ms": "ms",
	"loadgen.lag_ms": "ms", "loadgen.sent": "count", "loadgen.max_rps": "1/s",
	"loadgen.read_p50_ms": "ms", "loadgen.compute_p50_ms": "ms",
	"loadgen.read_p99_ms": "ms", "loadgen.compute_p99_ms": "ms",
	"trace.overhead_pct": "%",
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	// tiny shrinks every workload to a seconds-long smoke size.
	tiny bool
	// workers bounds the load goroutines and pool sizes: nproc.
	workers int
	// probes caps the extra fresh-process set-ups whose times join the
	// in-process one in setup_s.
	probes int
	// serveRates, when not nil, replaces serve-mix's open-loop rate.
	serveRates []float64
	// tmp holds the serve-mix stores; traceOut receives the span dump.
	tmp      string
	traceOut string
	// corrupt flips one output before it is checked, so tests can prove
	// that a wrong result is counted as a failed operation.
	corrupt bool

	// tr records spans in the traced phase of a --trace 1 run; it is nil
	// otherwise.
	tr *tracer

	// log receives human-readable progress lines.
	log io.Writer

	metrics   map[string]float64
	attempted int
	failed    int
	failures  []string
}

// check counts one checked operation and records it as failed unless ok.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if probe := os.Getenv(probeEnv); probe != "" {
		os.Exit(runProbe(probe, os.Stdout, os.Stderr))
	}
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", refSeed, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1 replays the workload with spans and reports per-layer metrics")
	tiny := fs.Bool("tiny", false, "run a seconds-long smoke size of the workload")
	tmp := fs.String("tmp", os.TempDir(), "directory for the serve-mix stores")
	traceOut := fs.String("trace-out", "", "directory the traced run writes its spans to")
	record := fs.String("record-reference", "", "write the reference outputs of every workload to this file and exit")
	rates := fs.String("serve-rates", "", "comma-separated offered rates (requests/s) that replace serve-mix's open-loop rate, each for an equal share of every round's open-loop time: a ladder for locating the daemon's knee")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record != "" {
		if err := recordReference(*record); err != nil {
			fmt.Fprintln(stderr, "qbench:", err)
			return 1
		}
		return 0
	}
	drive, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "qbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "qbench: --trace must be 0 or 1")
		return 2
	}
	r := newRun(*workload, *seed, *seconds, *trace == 1, *tiny)
	r.tmp, r.traceOut, r.log = *tmp, *traceOut, stdout
	for _, f := range strings.FieldsFunc(*rates, func(c rune) bool { return c == ',' }) {
		x, err := strconv.ParseFloat(f, 64)
		if err != nil || !(x > 0) {
			fmt.Fprintf(stderr, "qbench: bad --serve-rates entry %q\n", f)
			return 2
		}
		r.serveRates = append(r.serveRates, x)
	}
	if err := drive(r); err != nil {
		fmt.Fprintln(stderr, "qbench:", err)
		return 1
	}
	res, err := r.result()
	if err != nil {
		fmt.Fprintln(stderr, "qbench:", err)
		return 1
	}
	for _, f := range r.failures {
		fmt.Fprintln(stdout, "FAILED:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "qbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func newRun(workload string, seed uint64, seconds float64, traced, tiny bool) *run {
	r := &run{
		workload: workload, seed: seed, seconds: seconds, traced: traced, tiny: tiny,
		workers: runtime.NumCPU(), probes: maxProbes, tmp: os.TempDir(),
		log: io.Discard, metrics: map[string]float64{},
	}
	if tiny {
		r.probes = 1
	}
	return r
}

// result assembles the output line, insisting that the workload reported
// every metric its mode promises. Metrics of the other mode a workload
// also computed are left out.
func (r *run) result() (result, error) {
	want := endToEnd
	if r.traced {
		want = perLayer
	}
	if !r.traced {
		r.set("ok_frac", 1-float64(r.failed)/float64(max(r.attempted, 1)))
	}
	res := result{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metric, len(want))}
	for _, name := range want {
		v, ok := r.metrics[name]
		if !ok {
			if !r.traced {
				return result{}, fmt.Errorf("workload %s did not report %s", r.workload, name)
			}
			v = 0 // a layer this workload never calls
		}
		res.Metrics[name] = metric{Value: v, Unit: units[name]}
	}
	if res.Attempted == 0 {
		return result{}, errors.New("no operation was attempted")
	}
	return res, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
