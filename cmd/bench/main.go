// Command bench runs the noc/bench performance suite and writes a JSON
// snapshot, so repeated runs (one per perf-relevant PR) accumulate a
// BENCH_*.json trajectory of the simulator's throughput and allocation
// behavior. The same cases run under `go test -bench=. ./noc/bench/`;
// this binary exists to make machine-readable snapshots one command.
//
// Examples:
//
//	bench -label pr3 -json BENCH_pr3.json
//	bench -benchtime 2s -count 3 -baseline BENCH_pr2.json
//	bench -baseline BENCH_pr2.json -max-alloc-regress 0.10 -json ""   # CI gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"testing"

	"quarc/noc/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")

	out := flag.String("out", "BENCH_noc.json", "output JSON file (empty skips the JSON snapshot)")
	jsonOut := flag.String("json", "", "output JSON file (alias for -out; takes precedence when set)")
	label := flag.String("label", "", "label stored in the snapshot (e.g. a PR or commit id)")
	benchtime := flag.String("benchtime", "", "per-case benchmark time, as in go test (e.g. 2s or 100x; default 1s)")
	count := flag.Int("count", 1, "run the suite N times and keep each case's fastest run")
	baseline := flag.String("baseline", "", "baseline snapshot to diff against; prints per-case deltas")
	maxAllocRegress := flag.Float64("max-alloc-regress", -1,
		"with -baseline: exit nonzero when any case's allocs/op regresses by more than this fraction (e.g. 0.10; negative disables)")
	maxSpeedRegress := flag.Float64("max-speed-regress", -1,
		"with -baseline: exit nonzero when any case's events/sec throughput drops by more than this fraction (e.g. 0.10; negative disables)")
	// testing.Init registers the testing flags (notably test.benchtime)
	// that testing.Benchmark reads; it must run before flag.Parse.
	testing.Init()
	flag.Parse()

	if *jsonOut != "" || flagWasSet("json") {
		*out = *jsonOut
	}
	if *benchtime != "" {
		if err := flag.Set("test.benchtime", *benchtime); err != nil {
			log.Fatalf("invalid -benchtime %q: %v", *benchtime, err)
		}
	}
	if *count < 1 {
		*count = 1
	}

	recs := bench.Measure(bench.Suite())
	for i := 1; i < *count; i++ {
		recs = mergeFastest(recs, bench.Measure(bench.Suite()))
	}

	fmt.Printf("%-20s %14s %14s %12s\n", "case", "ns/op", "B/op", "allocs/op")
	for _, r := range recs {
		fmt.Printf("%-20s %14.0f %14d %12d\n", r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		for k, v := range r.Metrics {
			fmt.Printf("    %s = %.4g\n", k, v)
		}
	}

	failed := false
	if *baseline != "" {
		base, err := readBaseline(*baseline)
		if err != nil {
			log.Fatal(err)
		}
		failed = diff(base, recs, *maxAllocRegress, *maxSpeedRegress)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		if err := bench.WriteJSON(f, *label, recs); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *out)
	}
	if failed {
		os.Exit(1)
	}
}

func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// mergeFastest keeps, per case name, the record with the lowest ns/op —
// repeated -count runs squeeze scheduler and cache noise out of the
// snapshot.
func mergeFastest(a, b []bench.Record) []bench.Record {
	byName := make(map[string]bench.Record, len(b))
	for _, r := range b {
		byName[r.Name] = r
	}
	out := make([]bench.Record, len(a))
	for i, r := range a {
		if o, ok := byName[r.Name]; ok && o.NsPerOp < r.NsPerOp {
			out[i] = o
		} else {
			out[i] = r
		}
	}
	return out
}

func readBaseline(path string) (bench.Report, error) {
	var rep bench.Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, fmt.Errorf("baseline: %w", err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("baseline %s: %w", path, err)
	}
	return rep, nil
}

// diff prints per-case deltas against the baseline and returns whether
// the allocs/op or events/sec regression gates (when enabled) tripped.
func diff(base bench.Report, recs []bench.Record, maxAllocRegress, maxSpeedRegress float64) bool {
	byName := make(map[string]bench.Record, len(base.Cases))
	for _, r := range base.Cases {
		byName[r.Name] = r
	}
	fmt.Printf("\nvs baseline %q (%s %s/%s):\n", base.Label, base.GoVersion, base.GOOS, base.GOARCH)
	fmt.Printf("%-20s %12s %12s %9s %12s %12s %9s\n",
		"case", "ns/op old", "ns/op new", "Δ", "allocs old", "allocs new", "Δ")
	failed := false
	for _, r := range recs {
		old, ok := byName[r.Name]
		if !ok {
			fmt.Printf("%-20s %12s (new case)\n", r.Name, "-")
			continue
		}
		fmt.Printf("%-20s %12.0f %12.0f %8.1f%% %12d %12d %8.1f%%\n",
			r.Name, old.NsPerOp, r.NsPerOp, pct(r.NsPerOp, old.NsPerOp),
			old.AllocsPerOp, r.AllocsPerOp, pct(float64(r.AllocsPerOp), float64(old.AllocsPerOp)))
		if es, ok := r.Metrics["events/sec"]; ok {
			if oldES, ok := old.Metrics["events/sec"]; ok && oldES > 0 {
				fmt.Printf("    events/sec %.4g -> %.4g (%.2fx)\n", oldES, es, es/oldES)
				if maxSpeedRegress >= 0 && es < oldES*(1-maxSpeedRegress) {
					fmt.Printf("    FAIL: events/sec %.4g is more than %.0f%% below baseline %.4g\n",
						es, maxSpeedRegress*100, oldES)
					failed = true
				}
			}
		}
		if maxAllocRegress >= 0 &&
			float64(r.AllocsPerOp) > float64(old.AllocsPerOp)*(1+maxAllocRegress) {
			fmt.Printf("    FAIL: allocs/op %d exceeds baseline %d by more than %.0f%%\n",
				r.AllocsPerOp, old.AllocsPerOp, maxAllocRegress*100)
			failed = true
		}
	}
	return failed
}

// pct renders new-vs-old as a signed percentage (0 when the base is 0).
func pct(new, old float64) float64 {
	if old == 0 || math.IsNaN(old) {
		return 0
	}
	return (new - old) / old * 100
}
