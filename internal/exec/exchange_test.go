package exec

import (
	"fmt"
	"reflect"
	"testing"

	"pagefeedback/internal/catalog"
	"pagefeedback/internal/expr"
	"pagefeedback/internal/plan"
	"pagefeedback/internal/tuple"
)

// intHeap adds a heap table of n fixed-width rows (k, v, w) to the env: k is
// the row number, v a permutation of it, w one of ten groups. Every column
// is an integer, so scan predicates over it compile to the raw evaluator.
func intHeap(t *testing.T, e *env, name string, n int) *catalog.Table {
	t.Helper()
	schema := tuple.NewSchema(
		tuple.Column{Name: "k", Kind: tuple.KindInt},
		tuple.Column{Name: "v", Kind: tuple.KindInt},
		tuple.Column{Name: "w", Kind: tuple.KindInt},
	)
	h, err := e.cat.CreateHeapTable(name, schema)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]tuple.Row, n)
	for i := range rows {
		rows[i] = tuple.Row{tuple.Int64(int64(i)), tuple.Int64(int64(i*7919) % int64(n)), tuple.Int64(int64(i % 10))}
	}
	if _, err := h.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	return h
}

// runWithBudget builds and runs node at degree deg under a memory budget,
// returning the rows, the context and the run's error.
func runWithBudget(e *env, node plan.Node, deg int, budget int64) ([]tuple.Row, *Context, error) {
	ctx := NewContext(e.pool)
	ctx.Parallelism = deg
	ctx.Mem = NewMemTracker(budget)
	ex, err := Build(ctx, node, nil)
	if err != nil {
		return nil, nil, err
	}
	rows, err := ex.Run()
	return rows, ctx, err
}

// TestParallelScanMemoryIsBoundedByArenasInFlight: a parallel scan charges
// its output arenas to the query's memory budget, and a consumer hands each
// arena back for reuse, so the charge is bounded by the arenas in flight.
// A budget that fits the scan of a table must fit the scan of a table four
// times its size.
func TestParallelScanMemoryIsBoundedByArenasInFlight(t *testing.T) {
	const n = 8000
	const budget = 2 << 20
	e := newEnv(t)
	for _, rows := range []int{n, 4 * n} {
		tab := intHeap(t, e, fmt.Sprintf("ints%d", rows), rows)
		pred := mustBind(t, expr.And(expr.NewAtom("v", expr.Ge, tuple.Int64(0))), tab.Schema)
		node := plan.NewAgg(&plan.Scan{Tab: tab, Pred: pred}, plan.SumAgg, "w")
		for _, deg := range []int{0, 2} {
			res, ctx, err := runWithBudget(e, node, deg, budget)
			if err != nil {
				t.Fatalf("rows=%d deg=%d: %v", rows, deg, err)
			}
			if want := int64(rows / 10 * 45); len(res) != 1 || res[0][0].Int != want {
				t.Fatalf("rows=%d deg=%d: got %v, want %d", rows, deg, res, want)
			}
			t.Logf("rows=%d deg=%d: charged %d bytes", rows, deg, ctx.Mem.Used())
		}
	}
}

// TestParallelUnmonitoredMatchesSerial: without monitors a scan worker
// filters on the raw page bytes (fixed-width table) or column-at-a-time over
// the decoded page (hsales, whose pad is a VARCHAR), exactly as the serial
// scan does. Every degree must return the serial row multiset and charge
// the serial rows touched and simulated CPU.
func TestParallelUnmonitoredMatchesSerial(t *testing.T) {
	e := newEnv(t)
	ints := intHeap(t, e, "ints", envRows)
	hsales := heapEnv(t, e)
	cases := []struct {
		name string
		tab  *catalog.Table
		pred expr.Conjunction
	}{
		{"raw", ints, expr.And(expr.NewAtom("v", expr.Lt, tuple.Int64(1500)), expr.NewAtom("w", expr.Ne, tuple.Int64(3)))},
		{"decoded", hsales, expr.And(expr.NewAtom("c5", expr.Lt, tuple.Int64(900)))},
		{"unfiltered", hsales, expr.Conjunction{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			node := &plan.Scan{Tab: c.tab, Pred: mustBind(t, c.pred, c.tab.Schema)}
			serRows, _, serCtx := runPlanDeg(t, e, node, nil, 0)
			if len(serRows) == 0 {
				t.Fatal("serial scan returned no rows")
			}
			for _, deg := range []int{2, 4, 7} {
				parRows, _, parCtx := runPlanDeg(t, e, node, nil, deg)
				if got, want := sortedRowStrings(parRows), sortedRowStrings(serRows); !reflect.DeepEqual(got, want) {
					t.Fatalf("deg=%d: row multiset differs: %d rows vs %d", deg, len(got), len(want))
				}
				if got, want := parCtx.RowsTouched(), serCtx.RowsTouched(); got != want {
					t.Errorf("deg=%d: rowsTouched = %d, serial %d", deg, got, want)
				}
				if got, want := parCtx.SimCPU(), serCtx.SimCPU(); got != want {
					t.Errorf("deg=%d: simulated CPU = %v, serial %v", deg, got, want)
				}
			}
		})
	}
}

// TestParallelExchangeAllocsDoNotGrowWithRows: a warm parallel scan recycles
// its output arenas, and a hash-join probe encodes its keys into a reused
// buffer (one per worker when parallel) and joins straight into an arena, so
// neither allocates per row or per batch. From a table to one four times
// larger, both the serial and the parallel run may grow only by what they
// allocate per page — the buffer pool's pin handles, far less than one
// allocation per 64 rows — and the parallel run, exchange and per-chunk
// prefetch requests included, by less than one allocation per BatchSize rows
// more than the serial run.
func TestParallelExchangeAllocsDoNotGrowWithRows(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops items at random, so allocation counts vary")
	}
	const n = 8192
	e := newEnv(t)
	small := intHeap(t, e, "ints_small", n)
	large := intHeap(t, e, "ints_large", 4*n)
	scan := func(tab *catalog.Table) plan.Node {
		pred := mustBind(t, expr.And(expr.NewAtom("v", expr.Ge, tuple.Int64(0))), tab.Schema)
		return plan.NewAgg(&plan.Scan{Tab: tab, Pred: pred}, plan.SumAgg, "w")
	}
	join := func(tab *catalog.Table) plan.Node {
		return plan.NewAgg(&plan.Join{
			Method:   plan.HashJoin,
			Outer:    &plan.Scan{Tab: e.dim, Pred: expr.Conjunction{}},
			Inner:    &plan.Scan{Tab: tab, Pred: expr.Conjunction{}},
			OuterCol: "id", InnerCol: "k",
			Schem: plan.JoinSchema("dim", e.dim.Schema, tab.Name, tab.Schema),
		}, plan.CountAgg, "")
	}
	allocs := func(node plan.Node, deg int) float64 {
		return testing.AllocsPerRun(10, func() {
			ctx := NewContext(e.pool)
			ctx.Parallelism = deg
			ex, err := Build(ctx, node, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ex.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, c := range []struct {
		name string
		mk   func(*catalog.Table) plan.Node
	}{{"scan", scan}, {"hashjoin", join}} {
		growth := func(deg int) float64 {
			a, b := allocs(c.mk(small), deg), allocs(c.mk(large), deg)
			t.Logf("%s deg=%d: %.0f allocs at %d rows, %.0f at %d rows", c.name, deg, a, n, b, 4*n)
			return b - a
		}
		ser, par := growth(0), growth(2)
		const extra = 3 * n
		if ser >= extra/64 || par >= extra/64 {
			t.Errorf("%s: from %d to %d rows the serial run grows by %.0f allocs, the parallel run by %.0f (limit %d)",
				c.name, n, 4*n, ser, par, extra/64)
		}
		if par-ser >= extra/BatchSize {
			t.Errorf("%s: from %d to %d rows the parallel run grows by %.0f allocs, the serial run by %.0f (limit %d more)",
				c.name, n, 4*n, par, ser, extra/BatchSize)
		}
	}
}
