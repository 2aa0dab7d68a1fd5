package main

import (
	"math"
	"net/http"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []Span{
		{Trace: 1, ID: 1, Name: "op", Start: 0, End: 100},
		// Two parallel children overlapping on [20, 40), one spilling
		// past the parent's end, and a grandchild.
		{Trace: 1, ID: 2, Parent: 1, Name: "rtt", Start: 10, End: 40},
		{Trace: 1, ID: 3, Parent: 1, Name: "rtt", Start: 20, End: 50},
		{Trace: 1, ID: 4, Parent: 1, Name: "rtt", Start: 90, End: 120},
		{Trace: 1, ID: 5, Parent: 2, Name: "exec", Start: 15, End: 35},
	}
	got := make(map[string]selfTime)
	for _, r := range selfTimes(spans) {
		got[r.Name] = r
	}
	const ms = 1e-6
	// op: children cover [10, 50) and [90, 100) = 50 of 100.
	if r := got["op"]; r.Count != 1 || !near(r.SelfMs, 50*ms) || !near(r.TotalMs, 100*ms) {
		t.Errorf("op = %+v", r)
	}
	// rtt: 30-20 + 30 + 30 = 70 of total 90.
	if r := got["rtt"]; r.Count != 3 || !near(r.SelfMs, 70*ms) || !near(r.TotalMs, 90*ms) {
		t.Errorf("rtt = %+v", r)
	}
	if r := got["exec"]; !near(r.SelfMs, 20*ms) {
		t.Errorf("exec = %+v", r)
	}
}

func TestTraceHeaderRoundTrip(t *testing.T) {
	rec := NewRecorder()
	root := rec.Start(0, 0, "op")
	child := rec.Start(root.span.Trace, root.span.ID, "http.sort")
	h := http.Header{}
	setTraceHeader(h, child)
	trace, parent := parseTraceHeader(h)
	if trace != root.span.Trace || parent != child.span.ID {
		t.Errorf("header carried trace %d parent %d, want %d %d", trace, parent, root.span.Trace, child.span.ID)
	}
	child.End()
	root.End()
	if n := len(rec.Spans()); n != 2 {
		t.Errorf("%d spans recorded, want 2", n)
	}
	var none *Recorder
	none.Start(0, 0, "op").End() // untraced runs record nothing
	if trace, parent := parseTraceHeader(http.Header{}); trace != 0 || parent != 0 {
		t.Errorf("absent header parsed as %d-%d", trace, parent)
	}
}
