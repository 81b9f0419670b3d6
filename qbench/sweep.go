package main

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"sync"
	"time"

	"quarc/internal/routing"
	"quarc/internal/topology"
	"quarc/internal/traffic"
	"quarc/internal/wormhole"
	"quarc/noc"
)

// sim-sweep is a simulator-only noc.Sweep over quarc-64 (M=32, α=0.05,
// an 8-destination random multicast set) at fixed rates, with four
// replications per rate on nproc pooled workers. The model never runs and
// the route tables are built once, so the event loop, traffic generation,
// the replication fold and the sweep's pool do nearly all the work.

// sweepRates are about 30, 50, 70 and 85% of the model's saturation rate
// for this configuration (0.00142 messages/cycle/node).
var sweepRates = []float64{0.00043, 0.00071, 0.00099, 0.00121}

const (
	sweepN, sweepMsgLen, sweepDests, sweepReps = 64, 32, 8, 4
	sweepAlpha                                 = 0.05
	// sweepSetSeed fixes the destination set, so every seed sweeps the
	// same network and only the traffic varies.
	sweepSetSeed = 7
)

func sweepWindow(tiny bool) (warmup, measure float64) {
	if tiny {
		return 500, 3000
	}
	return 10000, 1000000
}

func setupSweep(r *run) (*noc.Scenario, error) {
	warmup, measure := sweepWindow(r.tiny)
	id := r.tr.start("noc.scenario", -1, 0)
	s, err := noc.NewScenario(noc.Quarc(sweepN), noc.MsgLen(sweepMsgLen), noc.Alpha(sweepAlpha),
		noc.RandomDests(sweepDests, sweepSetSeed), noc.Rate(sweepRates[0]), noc.Seed(r.seed),
		noc.Warmup(warmup), noc.Measure(measure), noc.Replications(sweepReps))
	r.tr.end(id)
	if err != nil {
		return nil, err
	}
	// Build the route tables and one network before the first cycle.
	prime, err := s.With(noc.Warmup(0), noc.Measure(1), noc.Replications(1))
	if err != nil {
		return nil, err
	}
	if _, err := noc.NewPooledSimulator().Evaluate(prime); err != nil {
		return nil, err
	}
	return s, nil
}

func sweepOnce(s *noc.Scenario, workers int) (noc.SweepResult, []byte, error) {
	res, err := noc.Sweep(s, noc.SweepOptions{Rates: sweepRates, Workers: workers,
		Evaluators: []noc.Evaluator{noc.Simulator{}}})
	if err != nil {
		return noc.SweepResult{}, nil, err
	}
	enc, err := json.Marshal(res)
	return res, enc, err
}

func sweepEntry(res noc.SweepResult) (refEntry, error) {
	e := refEntry{}
	for _, p := range res.Points {
		for _, x := range p.Results {
			e.Events += x.Events
			e.Messages += x.Completed
		}
	}
	var err error
	e.SHA256, err = digest(res)
	return e, err
}

func sweepReference(r *run) (refEntry, error) {
	r.seed = refSeed
	s, err := setupSweep(r)
	if err != nil {
		return refEntry{}, err
	}
	res, _, err := sweepOnce(s, r.workers)
	if err != nil {
		return refEntry{}, err
	}
	return sweepEntry(res)
}

func runSweep(r *run) error {
	if r.traced {
		r.tr = newTracer()
	}
	var s *noc.Scenario
	if err := r.timeSetup("", func() (err error) { s, err = setupSweep(r); return err }); err != nil {
		return err
	}
	window := r.seconds
	if r.traced {
		window /= 2
	}
	var first []byte
	var firstRes noc.SweepResult
	times, err := r.loop(window, 2, func(i int) error {
		res, enc, err := sweepOnce(s, r.workers)
		if err != nil {
			return err
		}
		if i == 0 {
			first, firstRes = enc, res
			return nil
		}
		r.check(bytes.Equal(enc, first), "sim-sweep: sweep output differs between runs at seed %d", r.seed)
		return nil
	})
	if err != nil {
		return err
	}
	if r.corrupt {
		firstRes.Points[0].Results[0].Unicast++
	}
	for _, p := range firstRes.Points {
		x := p.Results[0]
		r.check(!x.Saturated && x.Replications == sweepReps && x.Completed > 0,
			"sim-sweep: rate %g: saturated=%v replications=%d completed=%d", p.Rate, x.Saturated, x.Replications, x.Completed)
	}
	ref, err := sweepEntry(firstRes)
	if err != nil {
		return err
	}
	if r.seed != refSeed {
		rr := *r
		rr.tr = nil
		if ref, err = sweepReference(&rr); err != nil {
			return err
		}
	}
	if err := r.checkReference(ref); err != nil {
		return err
	}

	if !r.traced {
		r.set("wall_s", median(times))
		return nil
	}

	// Traced phase: one real noc.Sweep inside a span, for the pool's wall
	// time, then the same sweep replayed with spans over a router built
	// (and traced) here, as set-up built the scenario's.
	sweep := r.tr.start("noc.sweep", -1, 0)
	_, enc, err := sweepOnce(s, r.workers)
	r.tr.end(sweep)
	if err != nil {
		return err
	}
	r.check(bytes.Equal(enc, first), "sim-sweep: traced sweep differs from the untraced sweep")
	var c counters
	before := readMem()
	rt, set, err := sweepRouting(r.tr)
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := replaySweep(r.tr, s, rt, set, r.seed, r.tiny, r.workers, &c)
	if err != nil {
		return err
	}
	wall := time.Since(start).Seconds()
	r.setRuntime(before)
	if enc, err = json.Marshal(res); err != nil {
		return err
	}
	r.check(bytes.Equal(enc, first), "sim-sweep: traced replay differs from the untraced sweep")
	r.setSimLayers(&c)
	ls := r.tr.stats()
	r.set("noc.sweep_s", ls.total["noc.sweep"])
	r.set("noc.sweep_efficiency", ls.total["noc.job"]/(float64(r.workers)*ls.total["noc.sweep"]))
	r.setOverhead(median(times), wall)
	return r.tr.write(r.traceOut, r.workload, r.seed)
}

// sweepRouting builds the sweep's router and destination set as the
// scenario's registries do.
func sweepRouting(tr *tracer) (rt *routing.QuarcRouter, set routing.MulticastSet, err error) {
	err = tr.do("routing.build", -1, func() error {
		q, err := topology.NewQuarc(sweepN)
		if err != nil {
			return err
		}
		rt = routing.NewQuarcRouter(q)
		set, err = rt.RandomSet(rand.New(rand.NewPCG(sweepSetSeed, 0)), sweepDests)
		return err
	})
	return rt, set, err
}

// replaySweep makes the calls noc.Sweep makes for a replicated
// simulator-only sweep — one job per (rate, replication) on a pool of
// workers, each deriving the point's scenario from s and keeping one
// workload and network that it resets between jobs, then the per-rate
// replication fold — with a span around each. The pool, the replication
// seeds and the fold are copies of noc's unexported code; the byte
// comparison with the real sweep's output keeps them faithful.
func replaySweep(tr *tracer, s *noc.Scenario, rt *routing.QuarcRouter, set routing.MulticastSet, seed uint64, tiny bool, workers int, c *counters) (noc.SweepResult, error) {
	root := tr.start("noc.replay", -1, 0)
	defer tr.end(root)
	warmup, measure := sweepWindow(tiny)
	cfg := wormhole.Config{MsgLen: sweepMsgLen, Warmup: warmup, Measure: measure}

	type job struct{ point, rep int }
	jobs := make(chan job, len(sweepRates)*sweepReps)
	for p := range sweepRates {
		for rep := 0; rep < sweepReps; rep++ {
			jobs <- job{p, rep}
		}
	}
	close(jobs)
	raw := make([][]noc.Result, len(sweepRates))
	for p := range raw {
		raw[p] = make([]noc.Result, sweepReps)
	}
	var firstTables sync.Once
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < min(workers, cap(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var wl *traffic.Workload
			var nw *wormhole.Network
			for j := range jobs {
				id := tr.start("noc.job", root, 0)
				err := tr.do("noc.scenario", id, func() error {
					_, err := s.With(noc.MsgLen(sweepMsgLen), noc.Rate(sweepRates[j.point]))
					return err
				})
				spec := traffic.Spec{Rate: sweepRates[j.point], MulticastFrac: sweepAlpha, Set: set}
				rs := repSeed(seed, j.rep)
				if err == nil && wl == nil {
					first := false
					firstTables.Do(func() { first = true })
					if wl, err = newWorkload(tr, id, c, first, rt, spec, rs); err == nil {
						err = tr.do("wormhole.new", id, func() (err error) { nw, err = wormhole.New(rt.Graph(), wl, cfg); return err })
					}
				} else if err == nil {
					if err = tr.do("traffic.reset", id, func() error { return wl.Reset(spec, rs) }); err == nil {
						err = tr.do("wormhole.reset", id, func() error { return nw.Reset(wl, cfg) })
					}
				}
				if err == nil {
					raw[j.point][j.rep] = simResult(runNetwork(tr, id, c, nw))
				}
				tr.end(id)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					wl = nil
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return noc.SweepResult{}, firstErr
	}
	out := noc.SweepResult{Topology: "quarc", Set: set.String()}
	fold := tr.start("noc.fold", root, 0)
	for p, rate := range sweepRates {
		out.Points = append(out.Points, noc.SweepPoint{MsgLen: sweepMsgLen, Rate: rate,
			Results: []noc.Result{aggregate(raw[p])}})
	}
	tr.end(fold)
	return out, nil
}
