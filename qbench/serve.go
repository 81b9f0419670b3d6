package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"quarc/noc"
	"quarc/noc/service"
	"quarc/noc/service/store"
)

// serve-mix drives the serving stack quarcd runs — service.NewHandler over
// a service.Evaluator with nproc workers and a durable store — through a
// loopback listener in this process. A client sends a seeded schedule
// from nproc goroutines over at most nproc connections, timing every
// request from when it was due.
//
// Reads are repeats of a hot spec set (LRU hits), specs a previous daemon
// life stored on disk (store hits) and trace queries for metrics specs;
// writes are distinct small simulator specs (cold compute plus a store
// put), some model evaluations and 4-rate sweeps.

// The run is serveRounds rounds, each an open-loop latency segment at
// serveLatencyRate offered requests/s, over serveLatencyShare of the
// window split between the rounds, then a capacity segment that makes all
// of its requests due at once, so the generator always offers more than
// the daemon serves: the segment's duration is serve-mix's wall_s and its
// completion rate the daemon's capacity, loadgen.max_rps. The capacity segments hold as many requests as a daemon
// serving serveCapacityLoad requests/s would finish in the rest of the
// window. Every metric is the median of its value over the rounds, so a
// stall or a slow stretch of the shared host moves one round only.
//
// README.md has the measurements these numbers derive from: on a 2-vCPU
// machine, open-loop latency turns into queueing somewhere between 900 and
// 2,500 offered requests/s, and a capacity segment reads 1,200 to 2,900
// requests/s, as the shared host's speed varies. serveLatencyRate keeps
// the latency segments at a third of the knee or less.
const (
	serveRounds       = 6
	serveLatencyRate  = 300.0
	serveLatencyShare = 0.5
	serveCapacityLoad = 1000.0
)

type kind int

const (
	kindHot kind = iota
	kindStore
	kindTrace
	kindQuarc
	kindMesh
	kindModel
	kindSweep
)

// kindWeights is the request mix: reads (hot, store, trace) then writes
// (quarc-16, mesh-4x4, model, sweep). No trace of real traffic fixes these
// shares; they are assumptions: 60% reads, most of them LRU hits, and 40%
// writes, most of them cold simulator specs, so that both classes carry
// thousands of requests per run and every serving path is exercised.
var kindWeights = []float64{0.35, 0.125, 0.125, 0.2, 0.12, 0.04, 0.04}

func (k kind) read() bool { return k <= kindTrace }

func (k kind) class() string {
	if k.read() {
		return "read"
	}
	return "compute"
}

// request is one scheduled request.
type request struct {
	due   time.Duration
	rate  int // index into the schedule's rates; len(rates) in a capacity segment
	round int
	kind  kind
	path  string
	body  []byte // nil for a GET
	// spec is the evaluated spec: the evaluate body, the sweep's spec or
	// the metrics spec a trace query addresses.
	spec  noc.Spec
	rates []float64 // sweep rates
}

// schedule is a serve-mix input, generated from the seed alone.
type schedule struct {
	hot, metrics, stored []noc.Spec
	reqs                 []request
	// rates are the offered loads of each round's open-loop segments, one
	// after another; the latency metrics are taken at rates[0].
	rates []float64
	// segs are the [first, end) request indexes of each segment, in the
	// order they run; each segment starts when the one before has ended,
	// and its requests' due times count from its start.
	segs [][2]int
}

// specGen mints distinct small simulator specs.
type specGen struct {
	rng     *rand.Rand
	next    uint64
	measure float64
}

func (g *specGen) quarc() noc.Spec {
	g.next++
	return noc.Spec{Topology: "quarc", N: 16, MsgLen: 8, Rate: 0.001 + 0.003*g.rng.Float64(), Alpha: 0.05,
		Pattern: "random", Dests: 3, SetSeed: 1 + g.rng.Uint64N(8), Seed: g.next, Warmup: 500, Measure: g.measure}
}

func (g *specGen) mesh() noc.Spec {
	g.next++
	return noc.Spec{Topology: "mesh", W: 4, H: 4, MsgLen: 8, Rate: 0.002 + 0.006*g.rng.Float64(),
		Seed: g.next, Warmup: 500, Measure: g.measure}
}

// buildSchedule generates the schedule for seed over window seconds. Each
// round has an open-loop segment at serveLatencyRate or, with rates not
// nil, one at each of rates sharing that part of the window; then the
// capacity segment.
func buildSchedule(seed uint64, window float64, tiny bool, rates []float64) (schedule, error) {
	if rates == nil {
		rates = []float64{serveLatencyRate}
	}
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	g := &specGen{rng: rng, next: seed << 24, measure: 5000}
	nHot, nMetrics := 32, 8
	if tiny {
		g.measure, nHot, nMetrics = 2000, 4, 2
	}
	s := schedule{rates: rates}
	for i := 0; i < nHot; i++ {
		if i%2 == 0 {
			s.hot = append(s.hot, g.quarc())
		} else {
			s.hot = append(s.hot, g.mesh())
		}
	}
	for i := 0; i < nMetrics; i++ {
		sp := g.quarc()
		sp.Metrics, sp.MetricsBuckets = true, 16
		s.metrics = append(s.metrics, sp)
	}
	span := window * serveLatencyShare / float64(serveRounds*len(rates))
	burst := int(window * (1 - serveLatencyShare) * serveCapacityLoad / serveRounds)
	for round := 0; round < serveRounds; round++ {
		for ri, rate := range rates {
			first := len(s.reqs)
			for t := rng.ExpFloat64() / rate; t < span; t += rng.ExpFloat64() / rate {
				if err := s.add(rng, g, t, ri, round); err != nil {
					return schedule{}, err
				}
			}
			s.segs = append(s.segs, [2]int{first, len(s.reqs)})
		}
		first := len(s.reqs)
		for i := 0; i < burst; i++ {
			if err := s.add(rng, g, 0, len(rates), round); err != nil {
				return schedule{}, err
			}
		}
		s.segs = append(s.segs, [2]int{first, len(s.reqs)})
	}
	return s, nil
}

// add appends a request of a randomly picked kind, due t seconds into its
// segment, at rate index ri of round.
func (s *schedule) add(rng *rand.Rand, g *specGen, t float64, ri, round int) error {
	q := request{due: time.Duration(t * float64(time.Second)), rate: ri, round: round, kind: pick(rng), path: "/v1/evaluate"}
	switch q.kind {
	case kindHot:
		q.spec = s.hot[rng.IntN(len(s.hot))]
	case kindStore:
		q.spec = g.quarc()
		s.stored = append(s.stored, q.spec)
	case kindTrace:
		q.spec = s.metrics[rng.IntN(len(s.metrics))]
		q.path = fmt.Sprintf("/v1/trace/%016x", q.spec.Fingerprint())
	case kindQuarc:
		q.spec = g.quarc()
	case kindMesh:
		q.spec = g.mesh()
	case kindModel:
		q.spec = g.quarc()
		q.spec.Evaluator = "model"
	case kindSweep:
		q.spec = g.quarc()
		base := q.spec.Rate
		q.rates = []float64{base, base * 1.1, base * 1.2, base * 1.3}
		q.path = "/v1/sweep"
	}
	var err error
	switch q.kind {
	case kindTrace:
	case kindSweep:
		q.body, err = json.Marshal(service.SweepRequest{Spec: q.spec, Rates: q.rates})
	default:
		q.body, err = json.Marshal(q.spec)
	}
	s.reqs = append(s.reqs, q)
	return err
}

func pick(rng *rand.Rand) kind {
	u := rng.Float64()
	for k, w := range kindWeights {
		if u < w {
			return kind(k)
		}
		u -= w
	}
	return kind(len(kindWeights) - 1)
}

// daemon is the in-process quarcd stack on a loopback listener.
type daemon struct {
	ev   *service.Evaluator
	srv  *http.Server
	url  string
	done chan error
}

// startDaemon opens the store in dir and starts the evaluator, the HTTP
// handler and the listener — a daemon (re)start. With traced, spans are
// recorded around every Backend call.
func startDaemon(r *run, dir string, traced bool) (*daemon, error) {
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	ev := service.New(service.Config{Workers: r.workers, Store: st})
	var b service.Backend = ev
	if traced {
		b = tracedBackend{Backend: ev, tr: r.tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ev.Close()
		return nil, err
	}
	d := &daemon{ev: ev, srv: &http.Server{Handler: withRequestID(service.NewHandler(b))},
		url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- d.srv.Serve(ln) }()
	return d, nil
}

func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.ev.Close()
	return err
}

// Headers carrying the benchmark's request id and, in a traced run, the id
// of the client's span to the server side, where withRequestID moves them
// into the request context: the Backend spans of one request share its id
// and hang under its client span.
const (
	reqIDHeader  = "X-Qbench-Req"
	parentHeader = "X-Qbench-Span"
)

// reqInfo is what withRequestID stores in the request context.
type reqInfo struct {
	id     int64
	parent int
}

type reqInfoKey struct{}

func withRequestID(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		ri := reqInfo{parent: -1}
		ri.id, _ = strconv.ParseInt(req.Header.Get(reqIDHeader), 10, 64)
		if p, err := strconv.Atoi(req.Header.Get(parentHeader)); err == nil {
			ri.parent = p
		}
		h.ServeHTTP(w, req.WithContext(context.WithValue(req.Context(), reqInfoKey{}, ri)))
	})
}

func requestOf(ctx context.Context) reqInfo {
	if ri, ok := ctx.Value(reqInfoKey{}).(reqInfo); ok {
		return ri
	}
	return reqInfo{parent: -1}
}

// tracedBackend times every Backend call the handler makes.
type tracedBackend struct {
	service.Backend
	tr *tracer
}

func (b tracedBackend) Evaluate(ctx context.Context, sp noc.Spec) (noc.Result, service.Source, error) {
	ri := requestOf(ctx)
	id := b.tr.start("service.evaluate", ri.parent, ri.id)
	res, src, err := b.Backend.Evaluate(ctx, sp)
	b.tr.endTag(id, string(src))
	return res, src, err
}

func (b tracedBackend) Sweep(ctx context.Context, sp noc.Spec, rates []float64) ([]noc.Result, error) {
	ri := requestOf(ctx)
	id := b.tr.start("service.sweep", ri.parent, ri.id)
	res, err := b.Backend.Sweep(ctx, sp, rates)
	b.tr.end(id)
	return res, err
}

func (b tracedBackend) Trace(ctx context.Context, fp uint64) (noc.Result, service.Source, error) {
	ri := requestOf(ctx)
	id := b.tr.start("service.trace", ri.parent, ri.id)
	res, src, err := b.Backend.Trace(ctx, fp)
	b.tr.endTag(id, string(src))
	return res, src, err
}

// prefill stands for a previous daemon life: it evaluates specs into the
// store in dir, so the measured daemon finds them on disk.
func prefill(dir string, specs []noc.Spec, workers int) error {
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		return err
	}
	ev := service.New(service.Config{Workers: workers, Store: st})
	defer ev.Close()
	errs := make([]error, len(specs))
	forEach(len(specs), workers, func(i int) {
		_, _, errs[i] = ev.Evaluate(context.Background(), specs[i])
	})
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("prefilling the store: %w", err)
	}
	if st := ev.Stats(); st.StoreErrors != 0 || st.DurableResults != len(specs) {
		return fmt.Errorf("prefilling the store: %d of %d results stored, %d errors", st.DurableResults, len(specs), st.StoreErrors)
	}
	return nil
}

// outcome is what one request returned.
type outcome struct {
	status   int
	body     [32]byte // SHA-256 of the response body
	lat, lag time.Duration
	// done is when the response was read, from the schedule's start.
	done time.Duration
	err  error
}

func (o outcome) ok() bool { return o.err == nil && o.status/100 == 2 }

// client sends requests over at most n connections.
func newClient(n int) *http.Client {
	return &http.Client{Timeout: 60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}}
}

// send makes request q with request id id, under client span span (-1
// when untraced).
func send(ctx context.Context, c *http.Client, url string, id int64, span int, q request) (int, [32]byte, error) {
	method := http.MethodGet
	var body io.Reader
	if q.body != nil {
		method, body = http.MethodPost, bytes.NewReader(q.body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url+q.path, body)
	if err != nil {
		return 0, [32]byte{}, err
	}
	req.Header.Set(reqIDHeader, strconv.FormatInt(id, 10))
	if span >= 0 {
		req.Header.Set(parentHeader, strconv.Itoa(span))
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, [32]byte{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, sha256.Sum256(data), err
}

// warm evaluates the hot and metrics specs through the daemon, so the
// window's hot reads hit the LRU and its trace queries find their results.
func (r *run) warm(d *daemon, s schedule) error {
	c := newClient(1)
	defer c.CloseIdleConnections()
	for _, sp := range append(append([]noc.Spec{}, s.hot...), s.metrics...) {
		body, err := json.Marshal(sp)
		if err != nil {
			return err
		}
		status, _, err := send(context.Background(), c, d.url, 0, -1, request{path: "/v1/evaluate", body: body})
		if err != nil {
			return fmt.Errorf("warming the daemon: %w", err)
		}
		r.check(status == http.StatusOK, "serve-mix: warm-up request answered %d", status)
	}
	return nil
}

// fire runs the schedule segment by segment: each request is sent at its
// due time, or later if all of the workers senders are busy then, and
// timed from its due time. Spans go to tr when it is not nil.
func fire(d *daemon, s schedule, workers int, tr *tracer) []outcome {
	out := make([]outcome, len(s.reqs))
	c := newClient(workers)
	defer c.CloseIdleConnections()
	for _, seg := range s.segs {
		start := time.Now().Add(20 * time.Millisecond)
		forEach(seg[1]-seg[0], workers, func(k int) {
			i := seg[0] + k
			q := s.reqs[i]
			due := start.Add(q.due)
			time.Sleep(time.Until(due))
			sent := time.Now()
			id := tr.start("http.request", -1, int64(i+1))
			status, body, err := send(context.Background(), c, d.url, int64(i+1), id, q)
			tr.endTag(id, q.kind.class())
			done := time.Now()
			out[i] = outcome{status: status, body: body, lat: done.Sub(due), lag: sent.Sub(due), done: done.Sub(start), err: err}
		})
	}
	return out
}

// servePhase runs the schedule against a fresh daemon over a store
// prefilled in its own directory. The first phase's daemon start is the
// measured set-up.
func (r *run) servePhase(s schedule, phase int, traced bool) ([]outcome, service.Stats, error) {
	dir := filepath.Join(r.tmp, fmt.Sprintf("qbench-serve-%d-%d", os.Getpid(), phase))
	defer os.RemoveAll(dir)
	if err := prefill(dir, s.stored, r.workers); err != nil {
		return nil, service.Stats{}, err
	}
	// Let the disk finish writing back what the prefill and earlier runs
	// left dirty, so the window's fsyncs do not queue behind it.
	syscall.Sync()
	var d *daemon
	var err error
	if phase == 0 {
		err = r.timeSetup(dir, func() (err error) { d, err = startDaemon(r, dir, traced); return err })
	} else {
		d, err = startDaemon(r, dir, traced)
	}
	if err != nil {
		return nil, service.Stats{}, err
	}
	if err := r.warm(d, s); err != nil {
		d.close()
		return nil, service.Stats{}, err
	}
	var tr *tracer
	if traced {
		tr = r.tr
	}
	out := fire(d, s, r.workers, tr)
	stats := d.ev.Stats()
	return out, stats, d.close()
}

func runServe(r *run) error {
	window := r.seconds
	if r.traced {
		window /= 2
	}
	s, err := buildSchedule(r.seed, window, r.tiny, r.serveRates)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(r.tmp, 0o755); err != nil {
		return err
	}
	out, _, err := r.servePhase(s, 0, false)
	if err != nil {
		return err
	}
	// Read before the direct evaluations that check the responses.
	if err := r.setPeakRSS(); err != nil {
		return err
	}
	if r.corrupt {
		out[0].body[0] ^= 1
	}
	if err := r.verifyServe(s, out); err != nil {
		return err
	}
	r.setServeMetrics(s, out)
	if !r.traced {
		return nil
	}

	r.tr = newTracer()
	before := readMem()
	tracedOut, stats, err := r.servePhase(s, 1, true)
	if err != nil {
		return err
	}
	r.setRuntime(before)
	same := len(tracedOut) == len(out)
	for i := 0; same && i < len(out); i++ {
		same = tracedOut[i].body == out[i].body
	}
	r.check(same, "serve-mix: traced run's response bodies differ from the untraced run's")
	r.setServeLayers(s, tracedOut, stats)
	r.setOverhead(partStat(s, out, 0, isRead, latency, 0.5), partStat(s, tracedOut, 0, isRead, latency, 0.5))
	return r.tr.write(r.traceOut, r.workload, r.seed)
}

// partStat is the median over the rounds of the q-quantile of f over the
// requests at rate index ri that keep selects.
func partStat(s schedule, out []outcome, ri int, keep func(request) bool, f func(outcome) float64, q float64) float64 {
	var vals []float64
	for round := 0; round < serveRounds; round++ {
		var xs []float64
		for i, req := range s.reqs {
			if req.rate == ri && req.round == round && keep(req) {
				xs = append(xs, f(out[i]))
			}
		}
		vals = append(vals, quantile(xs, q))
	}
	return median(vals)
}

func isRead(q request) bool    { return q.kind.read() }
func isCompute(q request) bool { return !q.kind.read() }
func anyRequest(request) bool  { return true }

func latency(o outcome) float64 { return float64(o.lat) / 1e6 }
func lag(o outcome) float64     { return float64(o.lag) / 1e6 }

// setServeMetrics reports the metrics of the untraced phase: wall_s, the
// capacity segments' median duration, and the loadgen latencies at the
// first offered rate and capacity.
func (r *run) setServeMetrics(s schedule, out []outcome) {
	r.set("loadgen.read_p50_ms", partStat(s, out, 0, isRead, latency, 0.5))
	r.set("loadgen.compute_p50_ms", partStat(s, out, 0, isCompute, latency, 0.5))
	for ri, rate := range s.rates {
		fmt.Fprintf(r.log, "serve-mix: offered %g/s: p50 read %.3g ms, p50 compute %.3g ms, p99 %.3g ms, p99 lag %.3g ms\n",
			rate, partStat(s, out, ri, isRead, latency, 0.5), partStat(s, out, ri, isCompute, latency, 0.5),
			partStat(s, out, ri, anyRequest, latency, 0.99), partStat(s, out, ri, anyRequest, lag, 0.99))
	}
	walls, rates := capacity(s, out)
	fmt.Fprintf(r.log, "serve-mix: capacity segments took %.4g s, %.4g requests/s\n", walls, rates)
	r.set("wall_s", median(walls))
	r.set("loadgen.max_rps", median(rates))
}

// capacity returns each round's capacity-segment duration, from the
// segment's start to its last response, and its completion rate: its
// requests over that duration.
func capacity(s schedule, out []outcome) (walls, rates []float64) {
	for round := 0; round < serveRounds; round++ {
		var n int
		var last time.Duration
		for i, q := range s.reqs {
			if q.rate == len(s.rates) && q.round == round {
				n++
				last = max(last, out[i].done)
			}
		}
		walls = append(walls, last.Seconds())
		rates = append(rates, float64(n)/last.Seconds())
	}
	return walls, rates
}

func (r *run) setServeLayers(s schedule, out []outcome, st service.Stats) {
	tag := func(tags ...string) func(string) bool {
		return func(t string) bool {
			for _, x := range tags {
				if t == x {
					return true
				}
			}
			return false
		}
	}
	all := func(string) bool { return true }
	r.set("service.cache_ms", median0(r.tr.durations("service.evaluate", tag(string(service.SourceCache)))))
	r.set("service.store_ms", median0(r.tr.durations("service.evaluate", tag(string(service.SourceStore)))))
	r.set("service.compute_ms", median0(r.tr.durations("service.evaluate",
		tag(string(service.SourceComputed), string(service.SourceCoalesced)))))
	r.set("obs.trace_get_ms", median0(r.tr.durations("service.trace", all)))
	calls := st.Hits + st.Misses + st.Coalesced + st.StoreHits
	if calls > 0 {
		r.set("service.hit_ratio", float64(st.Hits+st.StoreHits)/float64(calls))
	}
	r.set("service.coalesced", float64(st.Coalesced))
	r.set("service.evaluations", float64(st.Evaluations))
	r.set("store.hits", float64(st.StoreHits))
	r.set("store.errors", float64(st.StoreErrors))
	r.set("store.quarantined", float64(st.Quarantined))

	refused := 0
	for _, o := range out {
		if o.status == http.StatusServiceUnavailable || o.status == http.StatusTooManyRequests {
			refused++
		}
	}
	r.set("service.refused", float64(refused))
	r.set("loadgen.lag_ms", partStat(s, out, 0, anyRequest, lag, 0.99))
	r.set("loadgen.sent", float64(len(out)))
	r.set("loadgen.read_p99_ms", partStat(s, out, 0, isRead, latency, 0.99))
	r.set("loadgen.compute_p99_ms", partStat(s, out, 0, isCompute, latency, 0.99))

	// HTTP overhead: a request's round trip minus the Backend spans under
	// it, i.e. the client span's self time.
	var overRead, overCompute []float64
	for _, sp := range r.tr.selfTimes("http.request") {
		if sp.tag == "read" {
			overRead = append(overRead, sp.ms)
		} else {
			overCompute = append(overCompute, sp.ms)
		}
	}
	r.set("http.read_overhead_ms", median0(overRead))
	r.set("http.compute_overhead_ms", median0(overCompute))
}

// median0 is median with an empty sample reading zero.
func median0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// verifyServe checks every response: it must be a 2xx whose body is
// bitwise-equal to the body a direct noc evaluation of the same spec
// encodes to. It runs after the window, on nproc workers.
func (r *run) verifyServe(s schedule, out []outcome) error {
	keys := make([]string, len(s.reqs))
	want := map[string][32]byte{}
	var todo []int
	for i, q := range s.reqs {
		keys[i] = q.path + "\x00" + string(q.body)
		if _, ok := want[keys[i]]; !ok {
			want[keys[i]] = [32]byte{}
			todo = append(todo, i)
		}
	}
	sums := make([][32]byte, len(todo))
	errs := make([]error, len(todo))
	forEach(len(todo), r.workers, func(j int) {
		sums[j], errs[j] = expectedBody(s.reqs[todo[j]])
	})
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("evaluating directly: %w", err)
	}
	for j, i := range todo {
		want[keys[i]] = sums[j]
	}
	for i, o := range out {
		q := s.reqs[i]
		switch {
		case o.err != nil:
			r.check(false, "serve-mix: request %d (%s): %v", i, q.path, o.err)
		case o.status/100 != 2:
			r.check(false, "serve-mix: request %d (%s) answered %d", i, q.path, o.status)
		default:
			r.check(o.body == want[keys[i]], "serve-mix: request %d (%s): body differs from a direct evaluation", i, q.path)
		}
	}
	return nil
}

// expectedBody is the SHA-256 of the body the daemon should send for q.
func expectedBody(q request) ([32]byte, error) {
	var v any
	if q.kind == kindSweep {
		resp := service.SweepResponse{Fingerprint: fmt.Sprintf("%016x", q.spec.Fingerprint())}
		for _, rate := range q.rates {
			sp := q.spec
			sp.Rate = rate
			res, err := evaluateDirect(sp)
			if err != nil {
				return [32]byte{}, err
			}
			resp.Points = append(resp.Points, service.SweepPoint{Rate: rate, Result: res})
		}
		v = resp
	} else {
		res, err := evaluateDirect(q.spec)
		if err != nil {
			return [32]byte{}, err
		}
		v = res
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b.Bytes()), nil
}

func evaluateDirect(sp noc.Spec) (noc.Result, error) {
	sc, err := sp.Scenario()
	if err != nil {
		return noc.Result{}, err
	}
	if sp.Evaluator == "model" {
		return noc.Model{}.Evaluate(sc)
	}
	return noc.Simulator{}.Evaluate(sc)
}
