package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestMain lets set-up probes re-execute the test binary, as they
// re-execute the benchmark binary in a real run.
func TestMain(m *testing.M) {
	if probe := os.Getenv(probeEnv); probe != "" {
		os.Exit(runProbe(probe, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatches pins BENCHMARK.json to the metrics and
// workloads this program reports.
func TestBenchmarkFileMatches(t *testing.T) {
	b := readBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	var e2e []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
		if units[m.Name] != m.Unit {
			t.Errorf("%s: BENCHMARK.json unit %q, program %q", m.Name, m.Unit, units[m.Name])
		}
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end-to-end metrics %v, program %v", e2e, endToEnd)
	}
	var layers []string
	for _, m := range b.PerLayer {
		layers = append(layers, m.Name)
		if units[m.Name] != m.Unit {
			t.Errorf("%s: BENCHMARK.json unit %q, program %q", m.Name, m.Unit, units[m.Name])
		}
	}
	if !slices.Equal(layers, perLayer) {
		t.Errorf("BENCHMARK.json per-layer metrics %v, program %v", layers, perLayer)
	}
}

// TestTinyRuns runs every workload at its tiny size, untraced and traced,
// through the command line: each must pass every check and print exactly
// its metrics. The traced run's own checks compare its outputs with the
// untraced run's.
func TestTinyRuns(t *testing.T) {
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				dir := t.TempDir()
				var stdout, stderr bytes.Buffer
				code := cli([]string{"--workload", w, "--seed", "1", "--seconds", "0.4", "--trace", trace,
					"--tiny", "--tmp", dir, "--trace-out", dir}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stdout.String())
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				var got []string
				for name, m := range res.Metrics {
					got = append(got, name)
					if m.Unit != units[name] {
						t.Errorf("%s: unit %q, want %q", name, m.Unit, units[name])
					}
				}
				sort.Strings(got)
				want = slices.Clone(want)
				sort.Strings(want)
				if !slices.Equal(got, want) {
					t.Errorf("metrics %v, want %v", got, want)
				}
			})
		}
	}
}

// TestCorruptionIsCounted flips one output of every workload before it is
// checked: the run must count it as a failed operation.
func TestCorruptionIsCounted(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			r := newRun(w, refSeed, 0.4, false, true)
			r.tmp, r.corrupt = t.TempDir(), true
			if err := workloads[w](r); err != nil {
				t.Fatal(err)
			}
			if r.failed == 0 {
				t.Fatalf("a corrupted output passed every check (%d attempted)", r.attempted)
			}
		})
	}
}
