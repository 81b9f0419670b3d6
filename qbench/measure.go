package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// probeEnv, when set in the environment, turns the process into a set-up
// probe: it performs the named workload's set-up, prints its duration in
// seconds and exits. Probes run in child processes because the simulator's
// route-table memo is process-global: it would keep every probe's tables
// alive in the measured process and inflate its peak RSS.
const probeEnv = "QBENCH_SETUP_PROBE"

// Further probe parameters, passed the same way.
const (
	probeSeedEnv = "QBENCH_PROBE_SEED"
	probeTinyEnv = "QBENCH_PROBE_TINY"
	probeDirEnv  = "QBENCH_PROBE_DIR"
)

// setupProbe is one workload's set-up as a probe performs it: do builds
// everything the workload needs before its first simulated cycle or first
// request, then releases it.
type setupProbe struct {
	do func(r *run, dir string) error
	// repeat is true when one process can repeat the set-up faithfully:
	// every repetition resolves fresh routers, so the route-table memo
	// never hides work, and the tables it keeps are small. mesh-1024's
	// tables take hundreds of MB each, so it sets up once per process, and
	// so does serve-mix, a daemon start: repeated in one process it took
	// about three times as long as in fresh processes and spread more.
	repeat bool
}

var setups = map[string]setupProbe{
	"paper-figures": {repeat: true, do: func(r *run, _ string) error { return setupFigures(r) }},
	"sim-sweep":     {repeat: true, do: func(r *run, _ string) error { _, err := setupSweep(r); return err }},
	"mesh-1024":     {do: func(r *run, _ string) error { _, err := setupMesh(r); return err }},
	"serve-mix": {do: func(r *run, dir string) error {
		d, err := startDaemon(r, dir, false)
		if err != nil {
			return err
		}
		return d.close()
	}},
}

// runProbe performs the workload's set-up — once, or for repeatBudget when
// it repeats — and prints each duration in seconds on a line of its own.
func runProbe(workload string, stdout, stderr io.Writer) int {
	setup, ok := setups[workload]
	if !ok {
		fmt.Fprintf(stderr, "qbench probe: unknown workload %q\n", workload)
		return 2
	}
	seed, err := strconv.ParseUint(os.Getenv(probeSeedEnv), 10, 64)
	if err != nil {
		fmt.Fprintln(stderr, "qbench probe:", err)
		return 2
	}
	r := newRun(workload, seed, 0, false, os.Getenv(probeTinyEnv) == "1")
	budget := repeatBudget
	if r.tiny {
		budget /= 20
	}
	begin := time.Now()
	for i := 0; i == 0 || (setup.repeat && (i < minRepeats || time.Since(begin) < budget)); i++ {
		start := time.Now()
		if err := setup.do(r, os.Getenv(probeDirEnv)); err != nil {
			fmt.Fprintln(stderr, "qbench probe:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%.9f\n", time.Since(start).Seconds())
	}
	return 0
}

// A repeatable set-up runs in one probe process, at least minRepeats
// times and for at least repeatBudget, so its median rests on many
// samples even when one set-up takes milliseconds. Any other set-up runs
// in at least minProbes fresh processes, then in more while they have
// taken less than probeBudget, up to maxProbes.
const (
	minRepeats   = 5
	repeatBudget = 2 * time.Second
	minProbes    = 2
	maxProbes    = 10
	probeBudget  = 1500 * time.Millisecond
)

// timeSetup measures the workload's set-up: in child processes (run one
// after another, before the in-process set-up, so they never compete with
// it), then once in this process through do unless do is nil, for a
// workload whose work builds everything afresh. setup_s is the median of
// all of them.
func (r *run) timeSetup(dir string, do func() error) error {
	times, err := r.probeSetups(dir)
	if err != nil {
		return err
	}
	if do != nil {
		start := time.Now()
		if err := do(); err != nil {
			return err
		}
		times = append(times, time.Since(start).Seconds())
	}
	r.set("setup_s", median(times))
	return nil
}

func (r *run) probeSetups(dir string) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	tiny := "0"
	if r.tiny {
		tiny = "1"
	}
	procs := r.probes
	if setups[r.workload].repeat {
		procs = 1
	}
	var times []float64
	start := time.Now()
	for i := 0; i < procs && (i < minProbes || time.Since(start) < probeBudget); i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		cmd := exec.CommandContext(ctx, exe)
		cmd.Env = append(os.Environ(), probeEnv+"="+r.workload,
			probeSeedEnv+"="+strconv.FormatUint(r.seed, 10), probeTinyEnv+"="+tiny, probeDirEnv+"="+dir)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		cancel()
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w: %s", err, strings.TrimSpace(stderr.String()))
		}
		for _, field := range strings.Fields(string(out)) {
			t, err := strconv.ParseFloat(field, 64)
			if err != nil {
				return nil, fmt.Errorf("set-up probe printed %q: %w", out, err)
			}
			times = append(times, t)
		}
	}
	return times, nil
}

// loop calls step until the window of seconds has passed, at least
// minIter times, and returns each call's duration in seconds. It reads
// peak_rss_mb after the first call.
func (r *run) loop(seconds float64, minIter int, step func(i int) error) ([]float64, error) {
	var times []float64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < minIter || time.Now().Before(deadline); i++ {
		start := time.Now()
		if err := step(i); err != nil {
			return times, err
		}
		times = append(times, time.Since(start).Seconds())
		if i == 0 {
			// peak_rss_mb covers set-up and one unit of work: later
			// units, the checks and the reference run would add whatever
			// the process-global route-table memo keeps alive.
			if err := r.setPeakRSS(); err != nil {
				return times, err
			}
		}
	}
	fmt.Fprintf(r.log, "%s: %d iterations at seed %d, seconds each: %.4g\n", r.workload, len(times), r.seed, times)
	return times, nil
}

// forEach calls f(i) for i in [0, n) on up to workers goroutines, which
// take indexes in order, and returns when every call has.
func forEach(n, workers int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// setPeakRSS reports peak_rss_mb: the process's VmHWM so far.
func (r *run) setPeakRSS() error {
	mb, err := peakRSSMB()
	if err != nil {
		return fmt.Errorf("reading peak RSS: %w", err)
	}
	r.set("peak_rss_mb", mb)
	return nil
}

// memSnapshot is the part of runtime.MemStats the per-layer runtime
// metrics difference over the traced phase.
type memSnapshot struct {
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
}

func readMem() memSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnapshot{totalAlloc: ms.TotalAlloc, numGC: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// setRuntime reports the runtime.* metrics for the interval since before.
func (r *run) setRuntime(before memSnapshot) {
	after := readMem()
	r.set("runtime.alloc_mb", float64(after.totalAlloc-before.totalAlloc)/(1<<20))
	r.set("runtime.gc_cycles", float64(after.numGC-before.numGC))
	r.set("runtime.gc_pause_ms", float64(after.pauseNs-before.pauseNs)/1e6)
}

// setOverhead reports trace.overhead_pct from the untraced and traced
// timings of the same work.
func (r *run) setOverhead(untraced, traced float64) {
	r.set("trace.overhead_pct", 100*(traced-untraced)/untraced)
}
