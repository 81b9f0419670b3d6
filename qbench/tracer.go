package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own calls. Spans of one serve-mix request share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Tag classifies a span among others of its name, e.g. the serving
	// Source of a service.evaluate span.
	Tag string `json:"tag,omitempty"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, which is how the untraced paths call the same
// code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) start(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) { t.endTag(id, "") }

// endTag closes span id and tags it.
func (t *tracer) endTag(id int, tag string) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.spans[id].Tag = tag
}

// do runs f inside a span.
func (t *tracer) do(name string, parent int, f func() error) error {
	id := t.start(name, parent, 0)
	err := f()
	t.end(id)
	return err
}

// layerStats aggregates closed spans by name.
type layerStats struct {
	// self sums, per name, each span's duration minus the part of it
	// its children cover (seconds).
	self map[string]float64
	// total sums span durations per name (seconds).
	total map[string]float64
}

func (t *tracer) stats() layerStats {
	ls := layerStats{self: map[string]float64{}, total: map[string]float64{}}
	t.eachClosed(func(s span, self int64) {
		ls.self[s.Name] += float64(self) / 1e9
		ls.total[s.Name] += float64(s.End-s.Start) / 1e9
	})
	return ls
}

// spanSelf is one span's tag and self time in milliseconds.
type spanSelf struct {
	tag string
	ms  float64
}

// selfTimes returns the self time of every closed span named name.
func (t *tracer) selfTimes(name string) []spanSelf {
	var out []spanSelf
	t.eachClosed(func(s span, self int64) {
		if s.Name == name {
			out = append(out, spanSelf{s.Tag, float64(self) / 1e6})
		}
	})
	return out
}

// eachClosed calls f with every closed span and its self time: its
// duration minus the part of it its children cover.
func (t *tracer) eachClosed(f func(s span, self int64)) {
	t.mu.Lock()
	spans := slices.Clone(t.spans)
	t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		if s.End >= 0 {
			f(s, s.End-s.Start-covered(s, children[s.ID]))
		}
	}
}

// durations returns the durations in milliseconds of the closed spans
// named name whose tag satisfies keep.
func (t *tracer) durations(name string, keep func(tag string) bool) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ms []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 && keep(s.Tag) {
			ms = append(ms, float64(s.End-s.Start)/1e6)
		}
	}
	return ms
}

// covered returns how much of parent's interval the union of its
// children's intervals covers (children may overlap when they ran on
// different workers).
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if k.End >= 0 && hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
	var sum, curLo, curHi int64
	open := false
	for _, v := range ivs {
		if open && v.lo <= curHi {
			curHi = max(curHi, v.hi)
			continue
		}
		if open {
			sum += curHi - curLo
		}
		curLo, curHi, open = v.lo, v.hi, true
	}
	if open {
		sum += curHi - curLo
	}
	return sum
}

// write dumps every span as JSON into dir (nothing when dir is empty).
func (t *tracer) write(dir, workload string, seed uint64) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	return nil
}
