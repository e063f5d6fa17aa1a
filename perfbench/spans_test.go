package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// span builds a test span with millisecond bounds.
func span(id, parent int, name string, start, end int) Span {
	return Span{ID: id, Parent: parent, Name: name,
		Start: time.Duration(start) * time.Millisecond, End: time.Duration(end) * time.Millisecond}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		span(1, 0, "tick", 0, 100),
		span(2, 1, "advance", 10, 60),  // child of tick
		span(3, 2, "pass", 20, 30),     // child of advance
		span(4, 2, "pass", 25, 40),     // overlaps the first pass
		span(5, 1, "submit", 55, 70),   // overlaps the advance: union counts once
		span(6, 1, "refresh", 90, 130), // runs past its parent: clipped
		span(7, 0, "root", 200, 210),   // no children
		span(8, 7, "empty", 205, 205),  // zero length
	}
	want := []time.Duration{
		100 - (70 - 10) - (100 - 90), // tick: children cover [10,70] and [90,100]
		50 - 20,                      // advance: passes cover [20,40]
		10, 15,                       // leaves
		15,
		40, // leaf; its own duration is not clipped
		10, // the zero-length child covers nothing
		0,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i]*time.Millisecond {
			t.Errorf("self(%s #%d) = %v, want %v", spans[i].Name, spans[i].ID, got[i], want[i]*time.Millisecond)
		}
	}
}

// TestPassPlusOtherIsTick is the identity the traced run reports:
// pass time plus the advance calls' self time is the advance time.
func TestPassPlusOtherIsTick(t *testing.T) {
	spans := []Span{
		span(1, 0, "phase.timed", 0, 1000),
		span(2, 1, "clock.tick", 0, 100),
		span(3, 2, "clock.advance", 0, 40),
		span(4, 2, "apiserver.submit", 40, 45),
		span(5, 2, "clock.advance", 45, 100),
		span(6, 5, "core.pass", 90, 98),
		span(7, 6, "core.stage.bind", 90, 95),
		span(8, 1, "clock.tick", 100, 200),
		span(9, 8, "clock.advance", 100, 200),
		span(10, 9, "core.pass", 150, 170),
		span(11, 0, "phase.setup", 1000, 1100),
		span(12, 11, "apiserver.submit", 1000, 1010),
	}
	tt := totals(spans)
	ms := time.Millisecond
	if tt.ticks != 2 || tt.tickSum != 195*ms || tt.passSum != 28*ms || tt.tickOther != 167*ms {
		t.Fatalf("totals = %+v", tt)
	}
	if tt.passSum+tt.tickOther != tt.tickSum {
		t.Errorf("pass %v + other %v != tick %v", tt.passSum, tt.tickOther, tt.tickSum)
	}
	if len(tt.tickMS) != 2 || tt.tickMS[0] != 95 || tt.tickMS[1] != 100 {
		t.Errorf("per-tick advance ms = %v, want [95 100]", tt.tickMS)
	}
	if len(tt.submitUS) != 2 || tt.submitSum != 15*ms {
		t.Errorf("submits = %v (%v), want both phases' two", tt.submitUS, tt.submitSum)
	}
}

func TestRecorder(t *testing.T) {
	var off *recorder
	if id := off.begin("x", 0); id != 0 {
		t.Errorf("nil recorder begin = %d", id)
	}
	off.end(0)

	r := newRecorder()
	outer := r.begin("outer", 0)
	inner := r.begin("inner", outer)
	r.end(inner)
	r.add("measured", outer, r.origin.Add(time.Millisecond), time.Millisecond)
	r.end(outer)
	if len(r.spans) != 3 || r.spans[1].Parent != outer || r.spans[2].Dur() != time.Millisecond {
		t.Fatalf("spans = %+v", r.spans)
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := writeSpans(path, []*repResult{{spans: r}, {spans: r}}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []Span
	if err := json.Unmarshal(data, &back); err != nil || len(back) != 6 || back[2].Name != "measured" {
		t.Errorf("round trip = %+v, %v", back, err)
	}
}
