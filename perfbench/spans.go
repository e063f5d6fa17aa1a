package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one timed call at a layer boundary. Start and End are host
// offsets from the recorder's origin; Parent is the enclosing span's ID
// (0 for a root). Spans of one repetition share Rep.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Rep    int           `json:"rep"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder is
// the untraced mode: every method is a no-op that returns span ID 0.
type recorder struct {
	origin time.Time
	rep    int
	spans  []Span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span under parent and returns its ID.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, Span{
		ID: len(r.spans) + 1, Parent: parent, Rep: r.rep, Name: name,
		Start: time.Since(r.origin),
	})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = time.Since(r.origin)
}

// add records a span measured elsewhere (a scheduling pass read from the
// program's pass traces) at absolute host time start.
func (r *recorder) add(name string, parent int, start time.Time, dur time.Duration) int {
	if r == nil {
		return 0
	}
	s := start.Sub(r.origin)
	r.spans = append(r.spans, Span{
		ID: len(r.spans) + 1, Parent: parent, Rep: r.rep, Name: name,
		Start: s, End: s + dur,
	})
	return len(r.spans)
}

// writeSpans stores the spans of the traced repetitions as one JSON
// array.
func writeSpans(path string, reps []*repResult) error {
	var all []Span
	for _, r := range reps {
		all = append(all, r.spans.spans...)
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time, indexed like spans: its
// duration minus the part of its interval that its children cover.
// Overlapping children are counted once, and a child's part outside its
// parent is ignored. Spans must carry IDs 1..len(spans) in order.
func selfTimes(spans []Span) []time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.Dur() - covered(s, children[s.ID])
	}
	return out
}

// covered measures the union of the kids' intervals clipped to parent.
func covered(parent Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}
