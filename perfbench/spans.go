package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call it makes. IDs start at 1; Parent 0 marks a root. Run groups
// the spans of one pass (batch workloads) or one request (serve-mixed).
// Events, when non-zero, is the work the call did, so per-event costs are
// measured where the work happens.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Events int64  `json:"events,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the timed code path is the
// same with tracing on or off apart from these calls.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id. run "" inherits the parent's.
func (t *tracer) start(name string, parent int, run string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if run == "" && parent > 0 {
		run = t.spans[parent-1].Run
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: run, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id, attaching the number of events it processed.
func (t *tracer) end(id int, events int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.spans[id-1].Events = events
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// adopt appends a pass process's spans, shifting them onto this
// tracer's clock and hanging the process's root spans under parent.
func (t *tracer) adopt(spans []span, epochNS int64, parent int) {
	if t == nil {
		return
	}
	off := epochNS - t.epoch.UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		s.Start += off
		s.End += off
		t.spans = append(t.spans, s)
	}
}

// layerTime is the aggregate of every span with one name.
type layerTime struct {
	count  int
	total  int64 // summed durations, ns
	self   int64 // summed self times, ns
	events int64
}

// selfTimes derives each name's self time: a span's duration minus the
// part of it its children cover. Children may overlap each other (the
// concurrent requests of one serve pass), so their union is subtracted.
func (t *tracer) selfTimes() map[string]*layerTime {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*layerTime)
	for _, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.count++
		lt.total += s.dur()
		lt.self += s.dur() - covered(children[s.ID], s.Start, s.End)
		lt.events += s.Events
	}
	return out
}

// covered returns how much of [lo, hi) the union of spans covers.
func covered(spans []span, lo, hi int64) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var sum int64
	cur := lo
	for _, s := range spans {
		a, b := max(s.Start, cur), min(s.End, hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// write saves the spans as JSON lines, after one header line of run
// metadata, and returns the path.
func (t *tracer) write(path string, meta any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(meta); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
