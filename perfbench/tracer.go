package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"pagefeedback/internal/exec"
)

// tracer records spans around the benchmark's calls into each layer. One
// tracer belongs to one client goroutine, so it needs no locking. Spans nest
// through a stack: a finished span adds its duration to its name's total and
// to its parent's child time, so a name's self time is its total minus the
// part its child spans cover. Spans are kept in memory as per-name
// aggregates and written out when the run ends. A nil *tracer records
// nothing, which is the untraced run.
type tracer struct {
	stack []openSpan
	agg   map[string]*spanAgg
}

type openSpan struct {
	name  string
	start time.Time
	child time.Duration
}

// spanAgg is every finished span of one name: how many, how many items they
// processed (rows, pages or calls), their total and their self time.
type spanAgg struct {
	spans, items int64
	total, self  time.Duration
}

func newTracer() *tracer { return &tracer{agg: make(map[string]*spanAgg)} }

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	t.stack = append(t.stack, openSpan{name: name, start: time.Now()})
}

// end closes the innermost open span, which processed items items.
func (t *tracer) end(items int64) {
	if t == nil {
		return
	}
	top := len(t.stack) - 1
	s := t.stack[top]
	t.stack = t.stack[:top]
	t.record(s.name, time.Since(s.start), s.child, items)
}

func (t *tracer) record(name string, d, child time.Duration, items int64) {
	t.tally(name, d, d-child, items)
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
}

func (t *tracer) tally(name string, total, self time.Duration, items int64) {
	a := t.agg[name]
	if a == nil {
		a = &spanAgg{}
		t.agg[name] = a
	}
	a.spans++
	a.items += items
	a.total += total
	a.self += self
}

// operators records the engine's own operator spans of one traced
// execution, as children of the innermost open span: each operator's
// inclusive wall time from the traced statistics tree, under the name
// exec.op.<kind>. Each operator's self time is also tallied by its place in
// the tree, under exec.op.leaf (operators that read pages themselves:
// scans and seeks) or exec.op.inner (operators over other operators).
func (t *tracer) operators(op exec.OperatorStats) {
	if t == nil {
		return
	}
	t.stack = append(t.stack, openSpan{name: "exec.op." + opKind(op.Label)})
	for _, c := range op.Children {
		t.operators(c)
	}
	top := len(t.stack) - 1
	s := t.stack[top]
	t.stack = t.stack[:top]
	t.record(s.name, op.Wall, s.child, 1)
	place := "exec.op.inner"
	if len(op.Children) == 0 {
		place = "exec.op.leaf"
	}
	t.tally(place, op.Wall, op.Wall-s.child, 1)
}

// opKind strips the operator label's arguments: "IndexSeek(t.ix_t_c5)"
// becomes "IndexSeek".
func opKind(label string) string {
	if i := strings.IndexAny(label, "( "); i >= 0 {
		return label[:i]
	}
	return label
}

func (t *tracer) merge(o *tracer) {
	for name, b := range o.agg {
		a := t.agg[name]
		if a == nil {
			a = &spanAgg{}
			t.agg[name] = a
		}
		a.spans += b.spans
		a.items += b.items
		a.total += b.total
		a.self += b.self
	}
}

// perItem is the mean total time of name's spans per item processed, in
// units of unit; 0 when no such span was recorded.
func (t *tracer) perItem(name string, unit time.Duration) float64 {
	a := t.agg[name]
	if a == nil || a.items == 0 {
		return 0
	}
	return float64(a.total) / float64(a.items) / float64(unit)
}

func (t *tracer) has(name string) bool { return t.agg[name] != nil }

// self is the total self time of name's spans.
func (t *tracer) self(name string) time.Duration {
	if a := t.agg[name]; a != nil {
		return a.self
	}
	return 0
}

// write prints one line per span name: spans, items, total and self time.
func (t *tracer) write(w io.Writer) {
	names := make([]string, 0, len(t.agg))
	for name := range t.agg {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-34s %9s %11s %12s %12s\n", "span", "spans", "items", "total_ms", "self_ms")
	for _, name := range names {
		a := t.agg[name]
		fmt.Fprintf(w, "%-34s %9d %11d %12.3f %12.3f\n", name, a.spans, a.items,
			float64(a.total)/1e6, float64(a.self)/1e6)
	}
}
