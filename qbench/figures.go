package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"quarc/internal/core"
	"quarc/internal/experiments"
	"quarc/internal/routing"
	"quarc/internal/traffic"
	"quarc/internal/wormhole"
	"quarc/noc"
)

// paper-figures regenerates the eight Fig. 6/7 panels through
// noc.RunFigurePanels. Most of its host time is the analytical model (the
// saturation search and the per-point predictions), so model and route
// work shows here and the event loop is a small share.

// figurePanels returns the panels the workload regenerates: all eight at
// eight points, or the two 16-node panels at three points when tiny.
func figurePanels(tiny bool) []experiments.Panel {
	var out []experiments.Panel
	for _, p := range experiments.AllPanels() {
		if tiny && p.N != 16 {
			continue
		}
		p.Points = 8
		if tiny {
			p.Points = 3
		}
		out = append(out, p)
	}
	return out
}

// figureSeeds is the number of simulation seeds the model error averages
// over. Each seed's simulations give the error a different sampling
// noise, so one seed alone would make it spread from run to run by up to
// a fifth of its value.
const figureSeeds = 3

// figureEffort is the quick effort with the run's seed.
func figureEffort(seed uint64, tiny bool) experiments.SimConfig {
	e := experiments.QuickSimConfig()
	e.Seed = seed
	if tiny {
		e.Warmup, e.Measure = 500, 4000
	}
	return e
}

func publicPanels(ps []experiments.Panel) ([]noc.Panel, error) {
	out := make([]noc.Panel, len(ps))
	for i, p := range ps {
		np, err := noc.PanelByID(p.ID)
		if err != nil {
			return nil, err
		}
		np.Points = p.Points
		out[i] = np
	}
	return out, nil
}

// setupFigures builds, for every panel, what noc.RunFigurePanels builds
// before the panel's first simulated cycle — the router, the destination
// set, the first traffic workload (which builds the route tables) and the
// network — and releases it. RunFigurePanels resolves fresh routers on
// every regeneration, so this work is inside wall_s too; the saturation
// search between these steps is model work and is timed in wall_s only.
func setupFigures(r *run) error {
	sim := figureEffort(r.seed, r.tiny)
	for _, p := range figurePanels(r.tiny) {
		rt, set, err := panelRouting(p)
		if err != nil {
			return fmt.Errorf("panel %s: %w", p.ID, err)
		}
		w, err := traffic.NewWorkload(rt, traffic.Spec{Rate: 1e-4, MulticastFrac: p.Alpha, Set: set}, sim.Seed)
		if err != nil {
			return fmt.Errorf("panel %s: %w", p.ID, err)
		}
		if _, err := wormhole.New(rt.Graph(), w, wormhole.Config{MsgLen: p.MsgLen, Warmup: sim.Warmup, Measure: sim.Measure}); err != nil {
			return fmt.Errorf("panel %s: %w", p.ID, err)
		}
	}
	return nil
}

// figPoint and figPanel read back the figure JSON noc writes.
type figPoint struct {
	Rate           float64  `json:"rate"`
	ModelUnicast   *float64 `json:"model_unicast"`
	ModelMulticast *float64 `json:"model_multicast"`
	SimUnicast     *float64 `json:"sim_unicast"`
	SimMulticast   *float64 `json:"sim_multicast"`
	SimUnicastCI   *float64 `json:"sim_unicast_ci95"`
	SimMulticastCI *float64 `json:"sim_multicast_ci95"`
	SimSaturated   bool     `json:"sim_saturated"`
	SimMessages    int64    `json:"sim_messages"`
}

type figPanel struct {
	SatRate float64    `json:"model_saturation_rate"`
	Points  []figPoint `json:"points"`
	Core    struct {
		MeanUnicastErr, MeanMulticastErr float64
	} `json:"agreement_core"`
}

// encodeFigures encodes each panel on its own, so checks can name the
// panel that differs.
func encodeFigures(results []noc.PanelResult) ([][]byte, error) {
	out := make([][]byte, len(results))
	for i, res := range results {
		var b bytes.Buffer
		if err := noc.WriteFiguresJSON(&b, []noc.PanelResult{res}); err != nil {
			return nil, err
		}
		out[i] = b.Bytes()
	}
	return out, nil
}

func encodeReplay(results []experiments.Result) ([][]byte, error) {
	out := make([][]byte, len(results))
	for i, res := range results {
		var b bytes.Buffer
		if err := experiments.WriteJSON(&b, []experiments.Result{res}); err != nil {
			return nil, err
		}
		out[i] = b.Bytes()
	}
	return out, nil
}

func parseFigures(enc [][]byte) ([]figPanel, error) {
	out := make([]figPanel, len(enc))
	for i, b := range enc {
		var one []figPanel
		if err := json.Unmarshal(b, &one); err != nil || len(one) != 1 {
			return nil, fmt.Errorf("reading figure JSON: %v", err)
		}
		out[i] = one[0]
	}
	return out, nil
}

// figuresEntry digests the simulator outputs and lists the model outputs.
func figuresEntry(panels []figPanel) (refEntry, error) {
	type simFields struct {
		U, M, UCI, MCI *float64
		Sat            bool
		Msgs           int64
	}
	var sims [][]simFields
	var e refEntry
	for _, p := range panels {
		var ps []simFields
		model := []float64{p.SatRate}
		for _, pt := range p.Points {
			ps = append(ps, simFields{pt.SimUnicast, pt.SimMulticast, pt.SimUnicastCI, pt.SimMulticastCI, pt.SimSaturated, pt.SimMessages})
			model = append(model, pt.Rate, orNeg(pt.ModelUnicast), orNeg(pt.ModelMulticast))
			e.Messages += pt.SimMessages
		}
		sims = append(sims, ps)
		e.Model = append(e.Model, model)
	}
	var err error
	e.SHA256, err = digest(sims)
	return e, err
}

// orNeg maps a null (saturated) latency to -1.
func orNeg(x *float64) float64 {
	if x == nil {
		return -1
	}
	return *x
}

func figuresReference(r *run) (refEntry, error) {
	panels, err := publicPanels(figurePanels(r.tiny))
	if err != nil {
		return refEntry{}, err
	}
	e := figureEffort(refSeed, r.tiny)
	res, err := noc.RunFigurePanels(panels, noc.Effort{Warmup: e.Warmup, Measure: e.Measure, Seed: e.Seed}, r.workers)
	if err != nil {
		return refEntry{}, err
	}
	enc, err := encodeFigures(res)
	if err != nil {
		return refEntry{}, err
	}
	parsed, err := parseFigures(enc)
	if err != nil {
		return refEntry{}, err
	}
	return figuresEntry(parsed)
}

func runFigures(r *run) error {
	exp := figurePanels(r.tiny)
	panels, err := publicPanels(exp)
	if err != nil {
		return err
	}
	sim := figureEffort(r.seed, r.tiny)
	effort := noc.Effort{Warmup: sim.Warmup, Measure: sim.Measure, Seed: sim.Seed}
	if r.traced {
		r.tr = newTracer()
	}
	// RunFigurePanels builds its routers afresh on every regeneration, so
	// a set-up in this process would leave nothing the work uses, only
	// tables the route-table memo keeps alive.
	if err := r.timeSetup("", nil); err != nil {
		return err
	}

	window := r.seconds
	if r.traced {
		window /= 2
	}
	// Iterations run the figureSeeds seeds in turn, each twice in a row
	// so the second run checks the first byte for byte; the first pair is
	// the run's own seed.
	var first, prev [][]byte
	var uni, mc float64
	times, err := r.loop(window, 2*figureSeeds, func(i int) error {
		seed := r.seed + uint64(i/2%figureSeeds)<<32
		res, err := noc.RunFigurePanels(panels, noc.Effort{Warmup: sim.Warmup, Measure: sim.Measure, Seed: seed}, r.workers)
		if err != nil {
			return err
		}
		enc, err := encodeFigures(res)
		if err != nil {
			return err
		}
		if i%2 == 1 {
			for j := range enc {
				r.check(bytes.Equal(enc[j], prev[j]), "paper-figures: panel %s differs between runs at seed %d", exp[j].ID, seed)
			}
			return nil
		}
		prev = enc
		if i == 0 {
			first = enc
		}
		if i < 2*figureSeeds {
			parsed, err := parseFigures(enc)
			if err != nil {
				return err
			}
			for _, p := range parsed {
				uni += p.Core.MeanUnicastErr / float64(len(parsed)*figureSeeds)
				mc += p.Core.MeanMulticastErr / float64(len(parsed)*figureSeeds)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	parsed, err := parseFigures(first)
	if err != nil {
		return err
	}
	if r.corrupt {
		*parsed[0].Points[0].ModelUnicast *= 1.01
	}
	if err := r.checkFigureModel(exp, parsed); err != nil {
		return err
	}
	ref, err := figuresEntry(parsed)
	if err != nil {
		return err
	}
	if r.seed != refSeed {
		if ref, err = figuresReference(r); err != nil {
			return err
		}
	}
	if err := r.checkReference(ref); err != nil {
		return err
	}

	r.set("core.model_err_unicast_pct", 100*uni)
	r.set("core.model_err_multicast_pct", 100*mc)
	if !r.traced {
		r.set("wall_s", median(times))
		return nil
	}

	// Traced phase: one real regeneration inside a span, for the pool's
	// efficiency, then a replay of the calls RunFigurePanels makes, with
	// spans.
	pool := r.tr.start("experiments.pool", -1, 0)
	_, err = noc.RunFigurePanels(panels, effort, r.workers)
	r.tr.end(pool)
	if err != nil {
		return err
	}
	var c counters
	before := readMem()
	start := time.Now()
	res, err := replayFigures(r.tr, exp, sim, r.workers, &c)
	if err != nil {
		return err
	}
	wall := time.Since(start).Seconds()
	r.setRuntime(before)
	enc, err := encodeReplay(res)
	if err != nil {
		return err
	}
	for j := range enc {
		r.check(bytes.Equal(enc[j], first[j]), "paper-figures: traced replay of panel %s differs from the untraced run", exp[j].ID)
	}
	r.setSimLayers(&c)
	ls := r.tr.stats()
	r.set("experiments.pool_efficiency", ls.total["experiments.panel"]/(float64(r.workers)*ls.total["experiments.pool"]))
	r.setOverhead(median(times), wall)
	return r.tr.write(r.traceOut, r.workload, r.seed)
}

// checkFigureModel re-solves the model at every point of every panel: each
// solve must converge and reproduce the latencies the figure run reported.
func (r *run) checkFigureModel(exp []experiments.Panel, parsed []figPanel) error {
	type verdict struct {
		ok   bool
		what string
	}
	verdicts := make([][]verdict, len(exp))
	errs := make([]error, len(exp))
	forEach(len(exp), r.workers, func(i int) {
		p := exp[i]
		rt, set, err := panelRouting(p)
		if err != nil {
			errs[i] = err
			return
		}
		for k, pt := range parsed[i].Points {
			pred, err := core.Predict(core.Input{Router: rt, MsgLen: p.MsgLen,
				Spec: traffic.Spec{Rate: pt.Rate, MulticastFrac: p.Alpha, Set: set}})
			if err != nil {
				errs[i] = err
				return
			}
			ok := pred.Converged && sameLatency(pred.UnicastLatency, pt.ModelUnicast) &&
				sameLatency(pred.MulticastLatency, pt.ModelMulticast)
			verdicts[i] = append(verdicts[i], verdict{ok, fmt.Sprintf("paper-figures: panel %s point %d: model converged=%v, latencies %v/%v, reported %v/%v",
				p.ID, k, pred.Converged, pred.UnicastLatency, pred.MulticastLatency, orNeg(pt.ModelUnicast), orNeg(pt.ModelMulticast))})
		}
	})
	for i, vs := range verdicts {
		if errs[i] != nil {
			return fmt.Errorf("panel %s: %w", exp[i].ID, errs[i])
		}
		for _, v := range vs {
			r.check(v.ok, "%s", v.what)
		}
	}
	return nil
}

func sameLatency(x float64, reported *float64) bool {
	if reported == nil {
		return math.IsNaN(x) || math.IsInf(x, 0)
	}
	return x == *reported
}

func panelRouting(p experiments.Panel) (*routing.QuarcRouter, routing.MulticastSet, error) {
	rt, err := p.Router()
	if err != nil {
		return nil, routing.MulticastSet{}, err
	}
	set, err := p.DestinationSet(rt)
	return rt, set, err
}

// replayFigures makes the calls experiments.RunPanels makes — a pool of
// workers over the panels; per panel the router, the saturation search and
// per point core.Predict, traffic.NewWorkload, wormhole.New and Run — with
// a span around each.
func replayFigures(tr *tracer, panels []experiments.Panel, sim experiments.SimConfig, workers int, c *counters) ([]experiments.Result, error) {
	pool := tr.start("experiments.replay", -1, 0)
	defer tr.end(pool)
	results := make([]experiments.Result, len(panels))
	errs := make([]error, len(panels))
	forEach(len(panels), workers, func(i int) {
		results[i], errs[i] = replayPanel(tr, pool, panels[i], sim, c)
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("panel %s: %w", panels[i].ID, err)
		}
	}
	return results, nil
}

func replayPanel(tr *tracer, parent int, p experiments.Panel, sim experiments.SimConfig, c *counters) (experiments.Result, error) {
	id := tr.start("experiments.panel", parent, 0)
	defer tr.end(id)
	var rt *routing.QuarcRouter
	var set routing.MulticastSet
	if err := tr.do("routing.build", id, func() (err error) { rt, set, err = panelRouting(p); return err }); err != nil {
		return experiments.Result{}, err
	}
	var sat float64
	if err := tr.do("experiments.satrate", id, func() (err error) {
		sat, err = experiments.FindSaturationRate(rt, p.MsgLen, p.Alpha, set, 1e-3)
		return err
	}); err != nil {
		return experiments.Result{}, err
	}
	res := experiments.Result{Panel: p, Set: set, SatRate: sat}
	for i := 1; i <= p.Points; i++ {
		frac := 0.10 + (0.95-0.10)*float64(i-1)/float64(p.Points-1)
		pt, err := replayPoint(tr, id, c, i == 1, rt, set, p.MsgLen, p.Alpha, sat*frac, sim)
		if err != nil {
			return experiments.Result{}, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

func replayPoint(tr *tracer, parent int, c *counters, first bool, rt routing.Router, set routing.MulticastSet,
	msgLen int, alpha, rate float64, sim experiments.SimConfig) (experiments.Point, error) {
	spec := traffic.Spec{Rate: rate, MulticastFrac: alpha, Set: set}
	var pred core.Prediction
	if err := tr.do("core.predict", parent, func() (err error) {
		pred, err = core.Predict(core.Input{Router: rt, Spec: spec, MsgLen: msgLen})
		return err
	}); err != nil {
		return experiments.Point{}, err
	}
	c.predicted(pred)
	w, err := newWorkload(tr, parent, c, first, rt, spec, sim.Seed)
	if err != nil {
		return experiments.Point{}, err
	}
	var nw *wormhole.Network
	if err := tr.do("wormhole.new", parent, func() (err error) {
		nw, err = wormhole.New(rt.Graph(), w, wormhole.Config{MsgLen: msgLen, Warmup: sim.Warmup, Measure: sim.Measure})
		return err
	}); err != nil {
		return experiments.Point{}, err
	}
	res := runNetwork(tr, parent, c, nw)
	return experiments.Point{
		Rate:           rate,
		ModelUnicast:   pred.UnicastLatency,
		ModelMulticast: pred.MulticastLatency,
		ModelSaturated: pred.Saturated,
		ModelMaxRho:    pred.MaxRho,
		SimUnicast:     res.Unicast.Mean(),
		SimMulticast:   res.Multicast.Mean(),
		SimUnicastCI:   res.UnicastBM.HalfWidth(1.96),
		SimMulticastCI: res.MulticastBM.HalfWidth(1.96),
		SimSaturated:   res.Saturated,
		SimMessages:    res.Completed,
	}, nil
}
