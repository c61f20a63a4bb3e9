package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

func TestSelfTimesSubtractDirectChildren(t *testing.T) {
	spans := []span{
		{Name: "round", Start: 0, End: 10, Parent: -1},
		{Name: "System.Run", Start: 1, End: 4, Parent: 0},
		{Name: "Dispatch", Start: 5, End: 9, Parent: 0},
		{Name: "inner", Start: 6, End: 7, Parent: 2},
		{Name: "GC", Start: 12, End: 14, Parent: -1},
	}
	self := selfTimes(spans)
	want := []float64{3, 3, 3, 1, 2}
	var sum float64
	for i := range want {
		if math.Abs(self[i]-want[i]) > 1e-12 {
			t.Errorf("self[%d] (%s) = %v, want %v", i, spans[i].Name, self[i], want[i])
		}
		sum += self[i]
	}
	if sum != 12 {
		t.Errorf("self times sum to %v, want the roots' 12", sum)
	}
}

func TestLayerTableGroupsByNameAndRound(t *testing.T) {
	spans := []span{
		{Name: "round", Start: 0, End: 5, Parent: -1, Round: 0},
		{Name: "System.Run", Start: 1, End: 4, Parent: 0, Round: 0},
		{Name: "round", Start: 5, End: 9, Parent: -1, Round: 1},
		{Name: "System.Run", Start: 5, End: 8, Parent: 2, Round: 1},
		{Name: "GC", Start: 9, End: 11, Parent: -1, Round: -1},
	}
	rows := layerTable(spans, func(r int) bool { return r >= 0 })
	if len(rows) != 2 || rows[0].Name != "System.Run" || rows[0].Calls != 2 || rows[0].Self != 6 ||
		rows[1].Name != "round" || rows[1].Self != 3 {
		t.Fatalf("layer table = %+v", rows)
	}
}

func TestTracerNestsSpans(t *testing.T) {
	var off *tracer
	if id := off.begin("x", ""); id != -1 {
		t.Fatalf("nil tracer begin = %d", id)
	}
	off.end(-1)

	tr := newTracer()
	tr.round = 7
	root := tr.begin("round", "")
	child := tr.begin("Dispatch", "cat")
	tr.end(child)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[child].Parent != root || tr.spans[root].Parent != -1 ||
		tr.spans[child].Round != 7 || tr.spans[child].Arg != "cat" {
		t.Fatalf("spans = %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Fatalf("span %s ends before it starts", s.Name)
		}
	}

	var buf bytes.Buffer
	if err := writeChrome(&buf, "test", tr.spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 || doc.TraceEvents[2]["name"] != "Dispatch" || doc.TraceEvents[2]["ph"] != "X" {
		t.Fatalf("trace events = %v", doc.TraceEvents)
	}
}
