// Package sim implements a small discrete-event simulation engine.
//
// The engine maintains a pending-event set ordered by (time, sequence):
// events scheduled at the same instant fire in the order they were
// scheduled, which makes runs fully deterministic for a fixed seed. Time is
// a float64 number of flit-cycles; the wormhole simulator schedules channel
// grants, header advances and tail releases as events.
//
// # Typed events
//
// Events come in two flavors. The hot path uses typed events: a small
// tagged Event record (kind + integer argument + optional pointer payload)
// dispatched through the engine's Handler. Scheduling a typed event copies
// a few words into the engine's own event storage and allocates nothing, so
// a warmed-up event loop runs allocation-free. The generic callback form
// (At/After with a closure) is kept as an escape hatch for tests and
// ad-hoc callers; each closure naturally costs one allocation.
//
// # Schedulers
//
// The pending-event set has two implementations behind the same Engine
// API. The default is a calendar queue (bucketed time ring with an
// overflow heap) with O(1) amortized schedule and pop; NewWithHeap selects
// the plain binary heap, retained as the simpler fallback and as the
// oracle for differential tests. Both order events identically by
// (time, sequence), so which scheduler runs is invisible in the results —
// only in the throughput.
package sim

import (
	"fmt"
	"math"
)

// Func is a generic event callback. The callback receives the engine so it
// can schedule further events.
type Func func(e *Engine)

// Kind tags a typed event. Kind values are defined by the Handler's owner
// (the engine only stores and dispatches them); zero is reserved for
// events carrying a generic callback.
type Kind uint8

// Event is one scheduled occurrence: either a typed record (Kind, Arg,
// Data) dispatched through the engine's Handler, or a generic callback in
// Fn. Arg carries a small integer payload such as a node or channel id;
// Data carries an optional pointer payload (storing a pointer in an
// interface does not allocate). When Fn is non-nil it takes precedence and
// the typed fields are ignored.
type Event struct {
	Kind Kind
	Arg  int32
	Data any
	Fn   Func
}

// Handler dispatches typed events. The handler is called with the engine
// so it can schedule further events; Engine.Now is the event's time.
type Handler interface {
	Handle(e *Engine, ev Event)
}

type item struct {
	t   float64
	seq uint64
	ev  Event
}

// eventHeap is a binary min-heap ordered by (t, seq). The sift operations
// are inlined here rather than going through container/heap, whose
// interface-based API boxes every pushed item into an allocation. It backs
// the heap-scheduler mode and the calendar queue's far-future overflow.
type eventHeap []item

func (h eventHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

//quarc:hotpath
func (h *eventHeap) push(it item) {
	hh := append(*h, it)
	i := len(hh) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !hh.less(i, parent) {
			break
		}
		hh[i], hh[parent] = hh[parent], hh[i]
		i = parent
	}
	*h = hh
}

//quarc:hotpath
func (h *eventHeap) pop() item {
	hh := *h
	n := len(hh) - 1
	it := hh[0]
	hh[0] = hh[n]
	hh[n] = item{} // drop payload references from the vacated slot
	hh = hh[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && hh.less(r, l) {
			j = r
		}
		if !hh.less(j, i) {
			break
		}
		hh[i], hh[j] = hh[j], hh[i]
		i = j
	}
	*h = hh
	return it
}

// maxRetainedEvents caps the event storage (heap slots or calendar bucket
// slots) an Engine keeps across Reset: a single saturated run can grow the
// pending set enormously, and retaining all of it would pin that memory
// for every later point of a sweep.
const maxRetainedEvents = 1 << 15

// Engine is a discrete-event scheduler. The zero value is ready to use and
// runs on the calendar-queue scheduler.
type Engine struct {
	now     float64
	seq     uint64
	useHeap bool
	heap    eventHeap
	cal     calQueue
	handler Handler
	stopped bool
	fired   uint64
}

// New returns an empty engine at time zero, backed by the calendar-queue
// scheduler.
func New() *Engine { return &Engine{} }

// NewWithHeap returns an empty engine backed by the binary-heap scheduler:
// the simpler fallback, and the oracle the calendar queue is
// differential-tested against. Event ordering is identical to New's.
func NewWithHeap() *Engine { return &Engine{useHeap: true} }

// Reset returns the engine to its zero state — time zero, no pending
// events, counters cleared — while keeping the allocated event storage and
// the handler, so one engine can be reused across the points of a sweep
// without reallocating. Storage grossly over-grown by a past run (beyond
// maxRetainedEvents) is released instead of retained.
func (e *Engine) Reset() {
	e.now = 0
	e.seq = 0
	e.fired = 0
	e.stopped = false
	for i := range e.heap {
		e.heap[i] = item{} // drop payload references
	}
	if cap(e.heap) > maxRetainedEvents {
		e.heap = nil
	} else {
		e.heap = e.heap[:0]
	}
	e.cal.reset(maxRetainedEvents)
}

// SetHandler installs the dispatcher for typed events. Scheduling a typed
// event on an engine without a handler is a logic error (Run panics when
// it fires).
func (e *Engine) SetHandler(h Handler) { e.handler = h }

// Now returns the current simulated time.
func (e *Engine) Now() float64 { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of scheduled, not-yet-fired events.
func (e *Engine) Pending() int {
	if e.useHeap {
		return len(e.heap)
	}
	return e.cal.len()
}

// NextTime returns the time of the earliest pending event without firing
// it, and false when no events are pending. The heap scheduler reads its
// root; the calendar queue has no cheap peek, so the engine pops the head
// and re-files it under its original sequence number — the (time, seq)
// order is exactly restored, because event order never depends on bucket
// geometry. A driver that interleaves its own work with the event loop
// uses it to find the next instant to Run to.
func (e *Engine) NextTime() (float64, bool) {
	if e.useHeap {
		if len(e.heap) == 0 {
			return 0, false
		}
		return e.heap[0].t, true
	}
	it, ok := e.cal.pop()
	if !ok {
		return 0, false
	}
	e.cal.push(it, e.now)
	return it.t, true
}

// SchedulerName identifies the active pending-event structure ("calendar"
// or "heap") for logs and benchmark labels.
func (e *Engine) SchedulerName() string {
	if e.useHeap {
		return "heap"
	}
	return "calendar"
}

// Schedule schedules ev to fire at absolute time t. Scheduling in the past
// (t < Now) panics: it always indicates a logic error in the caller.
//
//quarc:hotpath
func (e *Engine) Schedule(t float64, ev Event) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if math.IsNaN(t) {
		panic("sim: scheduling event at NaN")
	}
	e.seq++
	e.push(item{t: t, seq: e.seq, ev: ev})
}

// HintSchedule pre-sizes the calendar scheduler for a workload expected
// to keep roughly `pending` events in flight, scheduled up to roughly
// `span` time units ahead. A good hint skips the geometry-learning
// rebuilds a fresh engine otherwise pays during its first few thousand
// events; a bad one is corrected by the adaptive resize policy. The hint
// is purely about speed — event order never depends on geometry — and is
// ignored by the heap scheduler and by engines with pending events.
func (e *Engine) HintSchedule(span float64, pending int) {
	if e.useHeap || pending <= 0 || span <= 0 || math.IsNaN(span) || math.IsInf(span, 1) {
		return
	}
	e.cal.hint(span, pending, e.now)
}

// ReserveSeq consumes the next n sequence numbers and returns the first,
// without scheduling anything. An event-coalescing layer (the wormhole
// simulator's span drains) reserves the sequence range its micro-events
// would have occupied, then schedules the few events it does materialize
// into those slots via ScheduleSeq: same-time tie-breaking — and with it
// the whole run — stays bitwise identical to the uncoalesced schedule.
//
//quarc:hotpath
func (e *Engine) ReserveSeq(n int) uint64 {
	base := e.seq + 1
	e.seq += uint64(n)
	return base
}

// ScheduleSeq schedules ev at absolute time t under an explicit sequence
// number previously obtained from ReserveSeq. Reusing a live sequence
// number is a logic error (two events would tie exactly); the engine does
// not check for it.
//
//quarc:hotpath
func (e *Engine) ScheduleSeq(t float64, seq uint64, ev Event) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if math.IsNaN(t) {
		panic("sim: scheduling event at NaN")
	}
	e.push(item{t: t, seq: seq, ev: ev})
}

// At schedules fn to run at absolute time t — the generic-callback form of
// Schedule.
func (e *Engine) At(t float64, fn Func) { e.Schedule(t, Event{Fn: fn}) }

// After schedules fn to run d time units from now.
func (e *Engine) After(d float64, fn Func) { e.At(e.now+d, fn) }

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in time order until the event set is empty, Stop is
// called, or simulated time would exceed horizon (events strictly beyond
// the horizon are left unfired). Unless Stop was called, the clock is
// advanced to the horizon on return even when pending events lie beyond
// it, so back-to-back Run calls carve out exact, gap-free time windows.
// It returns the current time.
func (e *Engine) Run(horizon float64) float64 { return e.run(horizon, true) }

// RunBefore is Run with an exclusive horizon: events exactly at the
// horizon are left unfired, and unless Stop was called the clock still
// advances to the horizon. Together with Run's inclusive horizon this
// lets a caller carve time into exact half-open windows [a, b): run the
// prefix with RunBefore(a), switch phase state, then Run(b) fires
// everything in [a, b].
func (e *Engine) RunBefore(horizon float64) float64 { return e.run(horizon, false) }

//quarc:hotpath
func (e *Engine) run(horizon float64, inclusive bool) float64 {
	e.stopped = false
	for !e.stopped {
		// The scheduler dispatch is open-coded here (rather than through
		// e.pop) to keep one call and one item copy out of the hot loop.
		var it item
		if e.useHeap {
			if len(e.heap) == 0 {
				break
			}
			it = e.heap.pop()
		} else {
			var ok bool
			if it, ok = e.cal.pop(); !ok {
				break
			}
		}
		if it.t > horizon || (!inclusive && it.t == horizon) {
			// Beyond this run's window: put it back for a later Run.
			e.push(it)
			break
		}
		e.now = it.t
		e.fired++
		if it.ev.Fn != nil {
			it.ev.Fn(e)
		} else if e.handler != nil {
			e.handler.Handle(e, it.ev)
		} else {
			panic("sim: typed event fired on an engine without a handler")
		}
	}
	if !e.stopped && e.now < horizon && !math.IsInf(horizon, 1) {
		e.now = horizon
	}
	return e.now
}

// RunAll executes events until none remain or Stop is called.
func (e *Engine) RunAll() float64 { return e.Run(math.Inf(1)) }

//quarc:hotpath
func (e *Engine) push(it item) {
	if e.useHeap {
		e.heap.push(it)
		return
	}
	e.cal.push(it, e.now)
}
