package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one client
// operation share Trace; Parent is the ID of the span that caused this
// one (0 for a root). Start and End are nanoseconds since the recorder
// was created.
type Span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder is
// valid and records nothing, so untraced runs share the traced code path.
type Recorder struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []Span // guarded by mu
}

// NewRecorder returns an empty recorder whose clock starts now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// active is a started span; End records it.
type active struct {
	r    *Recorder
	span Span
}

// Start opens a span named name under parent (0 for a root) in trace
// (0 starts a new trace whose ID is the span's own).
func (r *Recorder) Start(trace, parent uint64, name string) *active {
	if r == nil {
		return nil
	}
	id := r.ids.Add(1)
	if trace == 0 {
		trace = id
	}
	return &active{r: r, span: Span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: int64(time.Since(r.epoch))}}
}

// End closes the span and stores it.
func (a *active) End() {
	if a == nil {
		return
	}
	a.span.End = int64(time.Since(a.r.epoch))
	a.r.mu.Lock()
	a.r.spans = append(a.r.spans, a.span)
	a.r.mu.Unlock()
}

// ids returns the span's trace and span ID (zeros for a nil span).
func (a *active) ids() (trace, id uint64) {
	if a == nil {
		return 0, 0
	}
	return a.span.Trace, a.span.ID
}

// Spans returns a copy of the recorded spans in start order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// WriteFile writes the spans as one JSON document.
func (r *Recorder) WriteFile(path string) error {
	buf, err := json.Marshal(r.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// traceHeader carries "<trace>-<parent span>" in hex from a benchmark
// client wrapper to the benchmark's server-side wrappers, so a server span
// joins the client's trace.
const traceHeader = "X-Meshbench-Trace"

func setTraceHeader(h http.Header, a *active) {
	if t, id := a.ids(); t != 0 {
		h.Set(traceHeader, strconv.FormatUint(t, 16)+"-"+strconv.FormatUint(id, 16))
	}
}

func parseTraceHeader(h http.Header) (trace, parent uint64) {
	t, p, ok := strings.Cut(h.Get(traceHeader), "-")
	if !ok {
		return 0, 0
	}
	trace, err1 := strconv.ParseUint(t, 16, 64)
	parent, err2 := strconv.ParseUint(p, 16, 64)
	if err1 != nil || err2 != nil {
		return 0, 0
	}
	return trace, parent
}

// selfTime is one row of the per-layer self-time table.
type selfTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes derives the per-layer table: a span's self time is its
// duration minus the part of its interval that its children cover. Child
// intervals may overlap (parallel shard dispatches); the union is
// subtracted, clipped to the parent.
func selfTimes(spans []Span) []selfTime {
	children := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := make(map[string]*selfTime)
	for _, s := range spans {
		row := rows[s.Name]
		if row == nil {
			row = &selfTime{Name: s.Name}
			rows[s.Name] = row
		}
		dur := s.End - s.Start
		row.Count++
		row.TotalMs += float64(dur) / 1e6
		row.SelfMs += float64(dur-covered(s, children[s.ID])) / 1e6
	}
	out := make([]selfTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns the length of the union of the children's intervals
// within parent's interval.
func covered(parent Span, kids []Span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}

// printSelfTimes writes the table for a human reader.
func printSelfTimes(rows []selfTime) {
	fmt.Printf("%-22s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Printf("%-22s %8d %12.3f %12.3f\n", r.Name, r.Count, r.TotalMs, r.SelfMs)
	}
}
