package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync/atomic"

	"quarc/internal/core"
	"quarc/internal/routing"
	"quarc/internal/stats"
	"quarc/internal/traffic"
	"quarc/internal/wormhole"
	"quarc/noc"
)

// counters accumulates the per-layer counts of a traced replay. Workers
// update it concurrently.
type counters struct {
	predictCalls, iterations, unconverged atomic.Int64
	events, completed, saturatedRuns      atomic.Int64
	tablesBytes                           atomic.Uint64
}

func (c *counters) predicted(p core.Prediction) {
	c.predictCalls.Add(1)
	c.iterations.Add(int64(p.Iterations))
	if !p.Converged {
		c.unconverged.Add(1)
	}
}

func (c *counters) simulated(r wormhole.Result) {
	c.events.Add(int64(r.Events))
	c.completed.Add(r.Completed)
	if r.Saturated {
		c.saturatedRuns.Add(1)
	}
}

// newWorkload builds a traffic workload inside a span. The first workload
// over a router builds its route tables, so it is traced as
// traffic.tables with the bytes it allocated; later ones are
// traffic.workload. The byte count is process-wide, so concurrent workers
// add to it.
func newWorkload(tr *tracer, parent int, c *counters, first bool, rt routing.Router, spec traffic.Spec, seed uint64) (*traffic.Workload, error) {
	name := "traffic.workload"
	var before uint64
	if first {
		name = "traffic.tables"
		if tr != nil {
			before = readMem().totalAlloc
		}
	}
	id := tr.start(name, parent, 0)
	w, err := traffic.NewWorkload(rt, spec, seed)
	tr.end(id)
	if first && tr != nil {
		c.tablesBytes.Add(readMem().totalAlloc - before)
	}
	return w, err
}

// runNetwork runs nw inside a wormhole.run span.
func runNetwork(tr *tracer, parent int, c *counters, nw *wormhole.Network) wormhole.Result {
	id := tr.start("wormhole.run", parent, 0)
	r := nw.Run()
	tr.end(id)
	c.simulated(r)
	return r
}

// setSimLayers reports the per-layer metrics the traced phase's spans
// and counters give.
func (r *run) setSimLayers(c *counters) {
	ls := r.tr.stats()
	for metric, spans := range map[string][]string{
		"noc.scenario_s":        {"noc.scenario"},
		"routing.build_s":       {"routing.build"},
		"traffic.tables_s":      {"traffic.tables"},
		"traffic.reset_s":       {"traffic.reset"},
		"core.predict_s":        {"core.predict"},
		"experiments.satrate_s": {"experiments.satrate"},
		"wormhole.new_s":        {"wormhole.new", "wormhole.reset"},
		"wormhole.run_s":        {"wormhole.run"},
	} {
		var sum float64
		for _, name := range spans {
			sum += ls.self[name]
		}
		r.set(metric, sum)
	}
	r.set("traffic.tables_mb", float64(c.tablesBytes.Load())/(1<<20))
	r.set("core.predict_calls", float64(c.predictCalls.Load()))
	r.set("core.iterations", float64(c.iterations.Load()))
	r.set("core.unconverged", float64(c.unconverged.Load()))
	r.set("wormhole.events", float64(c.events.Load()))
	if ev := c.events.Load(); ev > 0 {
		r.set("wormhole.ns_per_event", 1e9*ls.self["wormhole.run"]/float64(ev))
	}
	r.set("wormhole.completed", float64(c.completed.Load()))
	r.set("wormhole.saturated_runs", float64(c.saturatedRuns.Load()))
}

// simResult converts a wormhole run into the noc.Result the Simulator
// evaluator returns for it (the scenarios here use no detail, trace or
// metrics options).
func simResult(r wormhole.Result) noc.Result {
	return noc.Result{
		Evaluator:   "simulator",
		Unicast:     r.Unicast.Mean(),
		Multicast:   r.Multicast.Mean(),
		Saturated:   r.Saturated,
		UnicastCI:   r.UnicastBM.HalfWidth(1.96),
		MulticastCI: r.MulticastBM.HalfWidth(1.96),
		UnicastN:    r.Unicast.N(),
		MulticastN:  r.Multicast.N(),
		Generated:   r.Generated,
		Completed:   r.Completed,
		Time:        r.Time,
		Events:      r.Events,
		MaxUtil:     r.MaxUtil,
	}
}

// repSeed is the seed noc derives for replication rep of a scenario.
func repSeed(base uint64, rep int) uint64 {
	if rep == 0 {
		return base
	}
	z := base + uint64(rep)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// aggregate folds replications in replication order, as noc does for a
// replicated point.
func aggregate(results []noc.Result) noc.Result {
	var uni, mc stats.Replicates
	agg := noc.Result{Evaluator: results[0].Evaluator, Replications: len(results)}
	for _, r := range results {
		uni.Add(r.Unicast)
		mc.Add(r.Multicast)
		agg.UnicastN += r.UnicastN
		agg.MulticastN += r.MulticastN
		agg.Generated += r.Generated
		agg.Completed += r.Completed
		agg.Events += r.Events
		agg.Time += r.Time
		agg.Saturated = agg.Saturated || r.Saturated
		agg.MaxUtil = math.Max(agg.MaxUtil, r.MaxUtil)
	}
	agg.Unicast = uni.Mean()
	agg.UnicastCI = uni.HalfWidth(1.96)
	agg.Multicast = mc.Mean()
	agg.MulticastCI = mc.HalfWidth(1.96)
	return agg
}

// digest is the hex SHA-256 of v's JSON encoding.
func digest(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// refEntry pins one workload's outputs at refSeed.
type refEntry struct {
	// SHA256 digests the simulator outputs, which must match bitwise.
	SHA256 string `json:"sha256"`
	// Events and Messages are the simulated event and message totals,
	// kept readable beside the digest.
	Events   uint64 `json:"events,omitempty"`
	Messages int64  `json:"messages,omitempty"`
	// Model holds paper-figures' model outputs per panel: the saturation
	// rate, then rate, unicast and multicast latency per point. They must
	// match to modelTol.
	Model [][]float64 `json:"model,omitempty"`
}

// modelTol is the relative tolerance for model outputs against the
// reference: a reordered floating-point sum may move the last digits.
const modelTol = 1e-9

//go:embed reference.json
var referenceJSON []byte

// refKey names a reference entry.
func refKey(workload string, tiny bool) string {
	if tiny {
		return workload + "/tiny"
	}
	return workload + "/full"
}

func loadReference(workload string, tiny bool) (refEntry, error) {
	var refs map[string]refEntry
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return refEntry{}, fmt.Errorf("reference.json: %w", err)
	}
	e, ok := refs[refKey(workload, tiny)]
	if !ok {
		return refEntry{}, fmt.Errorf("reference.json has no entry %s", refKey(workload, tiny))
	}
	return e, nil
}

// references computes each simulator workload's reference entry at
// refSeed.
var references = map[string]func(r *run) (refEntry, error){
	"paper-figures": figuresReference,
	"sim-sweep":     sweepReference,
	"mesh-1024":     meshReference,
}

// recordReference regenerates reference.json's content into path.
func recordReference(path string) error {
	refs := map[string]refEntry{}
	for _, tiny := range []bool{true, false} {
		for name, ref := range references {
			r := newRun(name, refSeed, 0, false, tiny)
			r.workers = runtime.NumCPU()
			e, err := ref(r)
			if err != nil {
				return fmt.Errorf("%s: %w", refKey(name, tiny), err)
			}
			refs[refKey(name, tiny)] = e
		}
	}
	// One entry per line keeps the file diffable.
	keys := make([]string, 0, len(refs))
	for k := range refs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	b.WriteString("{\n")
	for i, k := range keys {
		data, err := json.Marshal(refs[k])
		if err != nil {
			return err
		}
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "  %q: %s%s\n", k, data, sep)
	}
	b.WriteString("}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// checkReference compares got with the pinned entry.
func (r *run) checkReference(got refEntry) error {
	want, err := loadReference(r.workload, r.tiny)
	if err != nil {
		return err
	}
	r.check(got.SHA256 == want.SHA256, "%s: simulator outputs at seed %d differ from reference.json (sha256 %s, want %s)",
		r.workload, refSeed, got.SHA256, want.SHA256)
	r.check(got.Events == want.Events && got.Messages == want.Messages,
		"%s: event/message totals at seed %d are %d/%d, reference.json has %d/%d",
		r.workload, refSeed, got.Events, got.Messages, want.Events, want.Messages)
	if want.Model != nil {
		ok := len(got.Model) == len(want.Model)
		for i := 0; ok && i < len(want.Model); i++ {
			ok = len(got.Model[i]) == len(want.Model[i])
			for j := 0; ok && j < len(want.Model[i]); j++ {
				ok = relClose(got.Model[i][j], want.Model[i][j], modelTol)
			}
		}
		r.check(ok, "%s: model outputs differ from reference.json beyond relative tolerance %g", r.workload, modelTol)
	}
	return nil
}

func relClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}
