package main

import (
	"bytes"
	"encoding/json"
	"time"

	"quarc/internal/routing"
	"quarc/internal/topology"
	"quarc/internal/traffic"
	"quarc/internal/wormhole"
	"quarc/noc"
)

// mesh-1024 runs a 32x32 mesh with uniform poisson unicast traffic (M=8)
// at two unsaturated rates that share one router through Scenario.With.
// Building the router's route tables dominates set-up and memory, and the
// event loop then runs memory-bound; the model does no work.

var meshRates = []float64{0.0015, 0.003}

const meshMsgLen = 8

func meshSize(tiny bool) (side int, warmup, measure float64) {
	if tiny {
		return 8, 500, 3000
	}
	return 32, 5000, 20000
}

// meshSetup is the state set-up leaves behind: both rate scenarios and
// the pooled simulator that already holds their network.
type meshSetup struct {
	scenarios []*noc.Scenario
	ev        noc.Evaluator
}

func setupMesh(r *run) (*meshSetup, error) {
	side, warmup, measure := meshSize(r.tiny)
	id := r.tr.start("noc.scenario", -1, 0)
	base, err := noc.NewScenario(noc.Mesh(side, side), noc.MsgLen(meshMsgLen), noc.Rate(meshRates[0]),
		noc.Seed(r.seed), noc.Warmup(warmup), noc.Measure(measure))
	m := &meshSetup{ev: noc.NewPooledSimulator()}
	if err == nil {
		m.scenarios = append(m.scenarios, base)
		for _, rate := range meshRates[1:] {
			var s *noc.Scenario
			if s, err = base.With(noc.Rate(rate)); err != nil {
				break
			}
			m.scenarios = append(m.scenarios, s)
		}
	}
	r.tr.end(id)
	if err != nil {
		return nil, err
	}
	// A one-cycle evaluation builds the route tables and the network the
	// pooled simulator then resets for every measured run.
	prime, err := base.With(noc.Warmup(0), noc.Measure(1))
	if err != nil {
		return nil, err
	}
	if _, err := m.ev.Evaluate(prime); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *meshSetup) runOnce() ([]noc.Result, []byte, error) {
	var out []noc.Result
	for _, s := range m.scenarios {
		res, err := m.ev.Evaluate(s)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, res)
	}
	enc, err := json.Marshal(out)
	return out, enc, err
}

func meshEntry(results []noc.Result) (refEntry, error) {
	e := refEntry{}
	for _, x := range results {
		e.Events += x.Events
		e.Messages += x.Completed
	}
	var err error
	e.SHA256, err = digest(results)
	return e, err
}

func meshReference(r *run) (refEntry, error) {
	r.seed = refSeed
	m, err := setupMesh(r)
	if err != nil {
		return refEntry{}, err
	}
	res, _, err := m.runOnce()
	if err != nil {
		return refEntry{}, err
	}
	return meshEntry(res)
}

func runMesh(r *run) error {
	if r.traced {
		r.tr = newTracer()
	}
	var m *meshSetup
	if err := r.timeSetup("", func() (err error) { m, err = setupMesh(r); return err }); err != nil {
		return err
	}
	window := r.seconds
	if r.traced {
		window /= 2
	}
	var first []byte
	var firstRes []noc.Result
	times, err := r.loop(window, 2, func(i int) error {
		res, enc, err := m.runOnce()
		if err != nil {
			return err
		}
		if i == 0 {
			first, firstRes = enc, res
			return nil
		}
		r.check(bytes.Equal(enc, first), "mesh-1024: results differ between runs at seed %d", r.seed)
		return nil
	})
	if err != nil {
		return err
	}
	if r.corrupt {
		firstRes[0].Completed++
	}
	for i, x := range firstRes {
		r.check(!x.Saturated && x.Completed > 0, "mesh-1024: rate %g: saturated=%v completed=%d", meshRates[i], x.Saturated, x.Completed)
	}
	ref, err := meshEntry(firstRes)
	if err != nil {
		return err
	}
	if r.seed != refSeed {
		// The measured scenarios share the router, so the reference runs
		// reuse the pooled network too.
		var refRes []noc.Result
		for _, s := range m.scenarios {
			rs, err := s.With(noc.Seed(refSeed))
			if err != nil {
				return err
			}
			x, err := m.ev.Evaluate(rs)
			if err != nil {
				return err
			}
			refRes = append(refRes, x)
		}
		if ref, err = meshEntry(refRes); err != nil {
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

	// Traced phase: build a fresh router, its route tables and network
	// with spans, as set-up did inside the scenario and the pooled
	// simulator, then replay one measured iteration.
	var c counters
	before := readMem()
	net, err := buildMesh(r.tr, r.seed, r.tiny, &c)
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := net.replay(r.tr, r.seed, &c)
	if err != nil {
		return err
	}
	wall := time.Since(start).Seconds()
	r.setRuntime(before)
	enc, err := json.Marshal(res)
	if err != nil {
		return err
	}
	r.check(bytes.Equal(enc, first), "mesh-1024: traced replay differs from the untraced run")
	r.setSimLayers(&c)
	r.setOverhead(median(times), wall)
	return r.tr.write(r.traceOut, r.workload, r.seed)
}

// meshNet is a mesh network built by the benchmark's own calls.
type meshNet struct {
	rt  *routing.MeshRouter
	set routing.MulticastSet
	cfg wormhole.Config
	wl  *traffic.Workload
	nw  *wormhole.Network
}

// buildMesh makes the set-up calls the scenario and the pooled simulator
// make: the router, traffic.NewWorkload (which builds the route tables)
// and wormhole.New.
func buildMesh(tr *tracer, seed uint64, tiny bool, c *counters) (*meshNet, error) {
	side, warmup, measure := meshSize(tiny)
	m := &meshNet{cfg: wormhole.Config{MsgLen: meshMsgLen, Warmup: warmup, Measure: measure}}
	if err := tr.do("routing.build", -1, func() error {
		mesh, err := topology.NewMesh(side, side)
		if err != nil {
			return err
		}
		m.rt = routing.NewMeshRouter(mesh)
		return nil
	}); err != nil {
		return nil, err
	}
	m.set = routing.NewMulticastSet(m.rt.Graph().Ports())
	var err error
	if m.wl, err = newWorkload(tr, -1, c, true, m.rt, traffic.Spec{Rate: meshRates[0], Set: m.set}, seed); err != nil {
		return nil, err
	}
	err = tr.do("wormhole.new", -1, func() (err error) { m.nw, err = wormhole.New(m.rt.Graph(), m.wl, m.cfg); return err })
	return m, err
}

// replay makes the calls the pooled simulator makes for each rate — a
// workload and network reset, then Run — with a span around each.
func (m *meshNet) replay(tr *tracer, seed uint64, c *counters) ([]noc.Result, error) {
	var out []noc.Result
	for _, rate := range meshRates {
		spec := traffic.Spec{Rate: rate, Set: m.set}
		if err := tr.do("traffic.reset", -1, func() error { return m.wl.Reset(spec, seed) }); err != nil {
			return nil, err
		}
		if err := tr.do("wormhole.reset", -1, func() error { return m.nw.Reset(m.wl, m.cfg) }); err != nil {
			return nil, err
		}
		out = append(out, simResult(runNetwork(tr, -1, c, m.nw)))
	}
	return out, nil
}
