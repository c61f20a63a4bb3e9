package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// span is one call into a layer, timed on the CPU-time clock.
type span struct {
	Name   string
	Arg    string  // operation detail, e.g. "cat" or "echo" for Dispatch
	Start  float64 // CPU seconds since process start
	End    float64
	Parent int // index of the enclosing span, -1 for a root
	Round  int // measured round, -1 outside the pass
}

// tracer records spans in memory; they are written out when the run
// ends. A nil *tracer records nothing, so untraced runs pay one nil
// check per layer call.
type tracer struct {
	spans []span
	open  []int
	round int
}

func newTracer() *tracer { return &tracer{spans: make([]span, 0, 1<<16), round: -1} }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name, arg string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Arg: arg, Parent: parent, Round: t.round, Start: cpuSeconds()})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = cpuSeconds()
	t.open = t.open[:len(t.open)-1]
}

// add records a root span of d CPU seconds ending now, for CPU time the
// process's other threads used outside any span.
func (t *tracer) add(name string, d float64) {
	if t == nil {
		return
	}
	now := cpuSeconds()
	t.spans = append(t.spans, span{Name: name, Parent: -1, Round: t.round, Start: now - d, End: now})
}

// selfTimes returns each span's duration minus the time its direct
// children cover. The self times of a tree sum to its root's duration.
func selfTimes(spans []span) []float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// layerRow is one line of the self-time table.
type layerRow struct {
	Name  string
	Calls int
	Self  float64 // CPU seconds
}

// layerTable sums self time by span name over the spans whose round
// satisfies keep, largest first.
func layerTable(spans []span, keep func(round int) bool) []layerRow {
	self := selfTimes(spans)
	by := map[string]*layerRow{}
	for i, s := range spans {
		if !keep(s.Round) {
			continue
		}
		r := by[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			by[s.Name] = r
		}
		r.Calls++
		r.Self += self[i]
	}
	rows := make([]layerRow, 0, len(by))
	for _, r := range by {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Self != rows[j].Self {
			return rows[i].Self > rows[j].Self
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// formatLayerTable renders rows with per-round self time and each
// layer's share of total.
func formatLayerTable(rows []layerRow, rounds int, total float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %8s %14s %12s %7s\n", "layer", "calls", "self_cpu_s", "ms/round", "share")
	var sum float64
	for _, r := range rows {
		sum += r.Self
		fmt.Fprintf(&b, "%-16s %8d %14.6f %12.4f %6.2f%%\n",
			r.Name, r.Calls, r.Self, 1e3*r.Self/float64(rounds), 100*r.Self/total)
	}
	fmt.Fprintf(&b, "%-16s %8s %14.6f %12.4f %6.2f%%\n", "sum", "", sum, 1e3*sum/float64(rounds), 100*sum/total)
	return b.String()
}

// chromeEvent is one Chrome/Perfetto trace-event ("traceEvents" JSON),
// the format internal/trace already writes for simulated packets.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes spans as complete ("X") events on one track. Their
// timestamps are host CPU microseconds, not wall time.
func writeChrome(w io.Writer, process string, spans []span) error {
	events := make([]chromeEvent, 0, len(spans)+1)
	events = append(events, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": process + " (host CPU time)"},
	})
	for i, s := range spans {
		args := map[string]any{"round": s.Round, "parent": s.Parent, "id": i}
		if s.Arg != "" {
			args["op"] = s.Arg
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: "layer", Ph: "X", Pid: 1, Tid: 1,
			Ts: 1e6 * s.Start, Dur: 1e6 * (s.End - s.Start), Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
}
