// Package bench is the performance harness of the simulation stack. It
// defines the benchmark suite (raw engine throughput, one full network
// run fresh vs reused, and a whole sweep) both as ordinary `go test
// -bench` benchmarks and as a programmatic suite the cmd/bench binary can
// run and serialize, so BENCH_*.json snapshots accumulate a performance
// trajectory across PRs (see EXPERIMENTS.md).
package bench

import (
	"encoding/json"
	"io"
	"runtime"
	"testing"
	"time"

	"quarc/internal/obs"
	"quarc/internal/routing"
	"quarc/internal/sim"
	"quarc/internal/topology"
	"quarc/internal/traffic"
	"quarc/internal/wormhole"
	"quarc/noc"
)

// Case is one named benchmark of the suite.
type Case struct {
	Name string
	Run  func(b *testing.B)
}

// Record is the serialized outcome of one Case.
type Record struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the top-level JSON document cmd/bench writes.
type Report struct {
	Label     string   `json:"label,omitempty"`
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	Cases     []Record `json:"cases"`
}

// Suite returns the benchmark cases in a fixed order. The first four
// names match the PR 2 baseline so `cmd/bench -baseline` can diff them;
// later cases extend the suite (replication fan-out, sweep scaling).
func Suite() []Case {
	return []Case{
		{Name: "Engine", Run: benchEngine},
		{Name: "NetworkRun/fresh", Run: benchNetworkRunFresh},
		{Name: "NetworkRun/reuse", Run: benchNetworkRunReuse},
		{Name: "Sweep", Run: benchSweep},
		{Name: "Replications", Run: benchReplications},
		{Name: "SweepScaling", Run: benchSweepScaling},
		{Name: "NetworkRun/onoff", Run: benchNetworkRunOnOff},
		{Name: "Replay", Run: benchReplay},
		{Name: "NetworkRun/noop-hook", Run: benchNetworkRunNoopHook},
		{Name: "NetworkRun/metrics", Run: benchNetworkRunMetrics},
		{Name: "NetworkRun/mesh8", Run: benchNetworkRunMesh8},
	}
}

// Measure runs every case through testing.Benchmark and collects records.
func Measure(cases []Case) []Record {
	out := make([]Record, 0, len(cases))
	for _, c := range cases {
		r := testing.Benchmark(c.Run)
		rec := Record{
			Name:        c.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if len(r.Extra) > 0 {
			rec.Metrics = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				rec.Metrics[k] = v
			}
		}
		out = append(out, rec)
	}
	return out
}

// WriteJSON serializes the records, stamped with the build environment.
func WriteJSON(w io.Writer, label string, recs []Record) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Report{
		Label:     label,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Cases:     recs,
	})
}

// tickHandler perpetuates every typed event it receives one cycle later —
// the minimal self-sustaining event loop, measuring pure engine overhead.
type tickHandler struct{}

func (tickHandler) Handle(e *sim.Engine, ev sim.Event) {
	e.Schedule(e.Now()+1, ev)
}

// benchEngine measures raw typed-event throughput: 64 concurrent event
// chains, one event per op. The steady-state loop must not allocate.
func benchEngine(b *testing.B) {
	eng := sim.New()
	eng.SetHandler(tickHandler{})
	const chains = 64
	for i := 0; i < chains; i++ {
		eng.Schedule(1, sim.Event{Kind: 1, Arg: int32(i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run(float64(b.N)/chains + 1)
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(eng.Fired())/s, "events/sec")
	}
}

// benchSetup is the shared mid-load quarc-16 configuration; it matches the
// pre-change baseline recorded in EXPERIMENTS.md, so allocs/op here track
// the hot-path allocation trajectory.
func benchSetup(b *testing.B) (*routing.QuarcRouter, traffic.Spec, wormhole.Config) {
	b.Helper()
	q, err := topology.NewQuarc(16)
	if err != nil {
		b.Fatal(err)
	}
	rt := routing.NewQuarcRouter(q)
	set, err := rt.LocalizedSet(topology.PortL, 4)
	if err != nil {
		b.Fatal(err)
	}
	spec := traffic.Spec{Rate: 0.004, MulticastFrac: 0.05, Set: set}
	return rt, spec, wormhole.Config{MsgLen: 32, Warmup: 1000, Measure: 10000}
}

// benchNetworkRunFresh rebuilds the network every iteration — the cost a
// sweep point paid before Network.Reset existed.
func benchNetworkRunFresh(b *testing.B) {
	rt, spec, cfg := benchSetup(b)
	var events uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := traffic.NewWorkload(rt, spec, 1)
		if err != nil {
			b.Fatal(err)
		}
		nw, err := wormhole.New(rt.Graph(), w, cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += nw.Run().Events
	}
	b.StopTimer()
	reportEventRate(b, events)
}

// benchNetworkRunReuse resets one network and one workload per iteration
// — the pooled sweep-worker path, which skips both the per-point network
// construction and the O(n²) route precomputation.
func benchNetworkRunReuse(b *testing.B) {
	rt, spec, cfg := benchSetup(b)
	w, err := traffic.NewWorkload(rt, spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	nw, err := wormhole.New(rt.Graph(), w, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var events uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Reset(spec, 1); err != nil {
			b.Fatal(err)
		}
		if err := nw.Reset(w, cfg); err != nil {
			b.Fatal(err)
		}
		events += nw.Run().Events
	}
	b.StopTimer()
	reportEventRate(b, events)
}

// benchNetworkRunOnOff is the reuse path under the bursty on/off arrival
// process and a tornado permutation — the workload-diversity subsystem's
// hot-path cost relative to NetworkRun/reuse (poisson/uniform).
func benchNetworkRunOnOff(b *testing.B) {
	rt, spec, cfg := benchSetup(b)
	n := rt.Graph().Nodes()
	spec.Arrival = "onoff"
	spec.BurstLen, spec.DutyCycle = 8, 0.25
	spec.MulticastFrac = 0
	spec.Set = routing.MulticastSet{}
	perm := make([]topology.NodeID, n)
	shift := (n+1)/2 - 1
	for i := range perm {
		perm[i] = topology.NodeID((i + shift) % n)
	}
	spec.Perm = perm
	w, err := traffic.NewWorkload(rt, spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	nw, err := wormhole.New(rt.Graph(), w, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var events uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Reset(spec, 1); err != nil {
			b.Fatal(err)
		}
		if err := nw.Reset(w, cfg); err != nil {
			b.Fatal(err)
		}
		events += nw.Run().Events
	}
	b.StopTimer()
	reportEventRate(b, events)
}

// benchReplay measures trace-driven runs: one recorded mid-load run
// replayed per iteration (replayer construction included; the route
// tables come from the shared per-router caches).
func benchReplay(b *testing.B) {
	rt, spec, cfg := benchSetup(b)
	w, err := traffic.NewWorkload(rt, spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	rec := traffic.NewRecorder(w)
	nw, err := wormhole.New(rt.Graph(), rec, cfg)
	if err != nil {
		b.Fatal(err)
	}
	nw.Run()
	tr := rec.Trace()
	var events uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rp, err := traffic.NewReplayer(rt, spec.Set, tr)
		if err != nil {
			b.Fatal(err)
		}
		if err := nw.Reset(rp, cfg); err != nil {
			b.Fatal(err)
		}
		events += nw.Run().Events
	}
	b.StopTimer()
	reportEventRate(b, events)
}

// noopHook subscribes to every position and does nothing: the pure
// dispatch overhead of an enabled hook layer.
type noopHook struct{}

func (noopHook) Func(wormhole.HookCtx) {}

// benchNetworkRunNoopHook is the reuse path with a no-op hook attached
// at every position — the marginal cost of hook dispatch itself,
// against NetworkRun/reuse as the hooks-disabled baseline.
func benchNetworkRunNoopHook(b *testing.B) {
	rt, spec, cfg := benchSetup(b)
	w, err := traffic.NewWorkload(rt, spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	nw, err := wormhole.New(rt.Graph(), w, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var events uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Reset(spec, 1); err != nil {
			b.Fatal(err)
		}
		if err := nw.Reset(w, cfg); err != nil {
			b.Fatal(err)
		}
		nw.Attach(noopHook{})
		events += nw.Run().Events
	}
	b.StopTimer()
	reportEventRate(b, events)
}

// benchNetworkRunMetrics is the reuse path under full metrics
// recording: a batched collector draining every position into an
// in-memory sink — the whole observability pipeline's per-run cost.
func benchNetworkRunMetrics(b *testing.B) {
	rt, spec, cfg := benchSetup(b)
	w, err := traffic.NewWorkload(rt, spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	nw, err := wormhole.New(rt.Graph(), w, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var events uint64
	var records int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Reset(spec, 1); err != nil {
			b.Fatal(err)
		}
		if err := nw.Reset(w, cfg); err != nil {
			b.Fatal(err)
		}
		sink := obs.NewMemorySink()
		coll := obs.NewCollector(sink, 0)
		nw.Attach(coll)
		events += nw.Run().Events
		if err := coll.Flush(); err != nil {
			b.Fatal(err)
		}
		records += int64(sink.Len())
	}
	b.StopTimer()
	reportEventRate(b, events)
	if b.N > 0 {
		b.ReportMetric(float64(records)/float64(b.N), "records/op")
	}
}

// meshBenchSetup is the mesh-8x8 unicast mid-load configuration of
// NetworkRun/mesh8.
func meshBenchSetup(b *testing.B) (*routing.MeshRouter, traffic.Spec, wormhole.Config) {
	b.Helper()
	m, err := topology.NewMesh(8, 8)
	if err != nil {
		b.Fatal(err)
	}
	rt := routing.NewMeshRouter(m)
	spec := traffic.Spec{Rate: 0.0015}
	return rt, spec, wormhole.Config{MsgLen: 8, Warmup: 1000, Measure: 10000}
}

// benchNetworkRunMesh8 is the mesh row of the serial event-loop bench:
// the reuse path of NetworkRun/reuse, but on a 64-node 2-D mesh (XY
// routes, unicast) instead of quarc-16, so the trajectory also tracks
// the event loop at four times the nodes on the second topology family.
func benchNetworkRunMesh8(b *testing.B) {
	rt, spec, cfg := meshBenchSetup(b)
	w, err := traffic.NewWorkload(rt, spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	nw, err := wormhole.New(rt.Graph(), w, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var events uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Reset(spec, 1); err != nil {
			b.Fatal(err)
		}
		if err := nw.Reset(w, cfg); err != nil {
			b.Fatal(err)
		}
		events += nw.Run().Events
	}
	b.StopTimer()
	reportEventRate(b, events)
}

func reportEventRate(b *testing.B, events uint64) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)/s, "events/sec")
	}
}

// benchReplications fans 8 seeded replications of one simulator point
// across GOMAXPROCS workers — the Replications/Parallelism scenario path.
func benchReplications(b *testing.B) {
	s, err := noc.NewScenario(
		noc.Quarc(16), noc.MsgLen(32), noc.Rate(0.004), noc.Alpha(0.05),
		noc.LocalizedDests(noc.PortL, 4),
		noc.Warmup(1000), noc.Measure(10000), noc.Seed(7),
		noc.Replications(8),
	)
	if err != nil {
		b.Fatal(err)
	}
	var events uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := noc.Simulator{}.Evaluate(s)
		if err != nil {
			b.Fatal(err)
		}
		events += r.Events
	}
	b.StopTimer()
	reportEventRate(b, events)
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
}

// benchSweepScaling runs one 4-point x 4-replication simulator sweep
// serially and with GOMAXPROCS workers per iteration, reporting the
// wall-clock speedup — the sweep-scaling trajectory metric.
func benchSweepScaling(b *testing.B) {
	s, err := noc.NewScenario(
		noc.Quarc(16), noc.MsgLen(32), noc.Alpha(0.05), noc.LocalizedDests(noc.PortL, 4),
		noc.Warmup(1000), noc.Measure(10000), noc.Seed(7),
		noc.Replications(4),
	)
	if err != nil {
		b.Fatal(err)
	}
	rates := []float64{0.001, 0.002, 0.003, 0.004}
	sims := []noc.Evaluator{noc.Simulator{}}
	workers := runtime.GOMAXPROCS(0)
	var serial, parallel time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := noc.Sweep(s, noc.SweepOptions{Rates: rates, Workers: 1, Evaluators: sims}); err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		if _, err := noc.Sweep(s, noc.SweepOptions{Rates: rates, Workers: workers, Evaluators: sims}); err != nil {
			b.Fatal(err)
		}
		serial += t1.Sub(t0)
		parallel += time.Since(t1)
	}
	b.StopTimer()
	if parallel > 0 {
		b.ReportMetric(float64(serial)/float64(parallel), "speedup")
	}
	b.ReportMetric(float64(workers), "workers")
}

// benchSweep runs a small model+simulator sweep per iteration, exercising
// the worker pool and the per-worker network reuse end to end.
func benchSweep(b *testing.B) {
	s, err := noc.NewScenario(
		noc.Quarc(16), noc.MsgLen(16), noc.Alpha(0.05), noc.LocalizedDests(noc.PortL, 3),
		noc.Warmup(500), noc.Measure(5000), noc.Seed(3),
	)
	if err != nil {
		b.Fatal(err)
	}
	opts := noc.SweepOptions{Rates: []float64{0.001, 0.002, 0.004}, Workers: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := noc.Sweep(s, opts); err != nil {
			b.Fatal(err)
		}
	}
}
