package exec

import (
	"encoding/binary"
	"strings"
	"testing"

	"pagefeedback/internal/catalog"
	"pagefeedback/internal/expr"
	"pagefeedback/internal/plan"
	"pagefeedback/internal/storage"
	"pagefeedback/internal/tuple"
)

// TestRawScanReportsCorruptRejectedRow corrupts the string length of a row
// the scan predicate rejects. The predicate reads only the leading integer
// column, so the scan judges every row on its page bytes and decodes only
// survivors; the corrupt row must still fail the query with the decode
// error, not be silently skipped. That holds only because a row of a schema
// with a variable-width tail is walked for well-formedness before it is
// judged — monitored or not, serial or parallel.
func TestRawScanReportsCorruptRejectedRow(t *testing.T) {
	pool := storage.NewBufferPool(storage.NewDiskManager(storage.DefaultIOModel()), 256)
	cat := catalog.New(pool)
	schema := tuple.NewSchema(
		tuple.Column{Name: "k", Kind: tuple.KindInt},
		tuple.Column{Name: "note", Kind: tuple.KindString},
		tuple.Column{Name: "v", Kind: tuple.KindInt},
	)
	tab, err := cat.CreateHeapTable("notes", schema)
	if err != nil {
		t.Fatal(err)
	}
	const n = 600
	var victim storage.RID
	for i := 0; i < n; i++ {
		rid, err := tab.Insert(tuple.Row{tuple.Int64(int64(i)), tuple.Str("note"), tuple.Int64(int64(i % 7))})
		if err != nil {
			t.Fatal(err)
		}
		if i == n/2 {
			victim = rid
		}
	}
	parts, err := tab.ScanPartitions(1)
	if err != nil {
		t.Fatal(err)
	}
	parts[0].Iter.Close()
	pp, err := pool.FetchPage(parts[0].File, victim.Page)
	if err != nil {
		t.Fatal(err)
	}
	// The length prefix of note follows k's 8 bytes; claim more bytes than
	// the cell holds.
	binary.LittleEndian.PutUint32(pp.Page.Cell(victim.Slot)[8:], 1000)
	pp.Unpin(true)

	pred := mustBind(t, expr.And(expr.NewAtom("k", expr.Lt, tuple.Int64(10))), schema)
	if !expr.CompileRaw(pred, schema).OK() {
		t.Fatal("k < 10 did not compile to the raw evaluator")
	}
	for _, tc := range []struct {
		name string
		cfg  *MonitorConfig
	}{
		{"unmonitored", nil},
		{"exact-prefix", &MonitorConfig{Requests: []DPCRequest{{Table: "notes", Pred: pred}}}},
	} {
		for _, deg := range []int{1, 2} {
			ctx := NewContext(pool)
			ctx.Parallelism = deg
			ex, err := Build(ctx, &plan.Scan{Tab: tab, Pred: pred}, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := ex.Run()
			if err == nil || !strings.Contains(err.Error(), "truncated string column note") {
				t.Errorf("%s, degree %d: got %d rows, err %v; want the decode error for the corrupt row",
					tc.name, deg, len(rows), err)
			}
			if pool.Pinned() != 0 {
				t.Fatalf("%s, degree %d: %d pages left pinned", tc.name, deg, pool.Pinned())
			}
		}
	}
}

// TestRawScanMonitorsMatchDecodedTruth runs the scan monitors over a scan
// whose predicate is judged on page bytes: exact counting on a strict prefix
// and on the whole predicate, which read only the per-page first-failing-atom
// counts, and page sampling on a non-prefix, which makes the scan decode each
// sampled page whole. At fraction 0.5 some pages are decoded whole and some
// only for their survivors. Rows, exact page counts and cardinalities must
// match a full decode of the table, serial and parallel.
func TestRawScanMonitorsMatchDecodedTruth(t *testing.T) {
	e := newEnv(t)
	p1 := expr.NewAtom("c5", expr.Lt, tuple.Int64(2000))
	p2 := expr.NewAtom("c2", expr.Ge, tuple.Int64(1000))
	scanPred := mustBind(t, expr.And(p1, p2), e.sales.Schema)
	if !expr.CompileRaw(scanPred, e.sales.Schema).OK() {
		t.Fatal("scan predicate did not compile to the raw evaluator")
	}
	trueRows := func(pred expr.Conjunction) int64 {
		t.Helper()
		bound := mustBind(t, pred, e.sales.Schema)
		it, err := e.sales.ScanAll()
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		n := int64(0)
		for it.Next() {
			if bound.Eval(it.Row()) {
				n++
			}
		}
		return n
	}
	preds := []expr.Conjunction{expr.And(p1), expr.And(p1, p2), expr.And(p2)}
	mechs := []string{MechExactScan, MechExactScan, MechDPSample}
	for _, f := range []float64{0.5, 1} {
		for _, deg := range []int{1, 2} {
			cfg := &MonitorConfig{SampleFraction: f, Seed: 7}
			for _, p := range preds {
				cfg.Requests = append(cfg.Requests, DPCRequest{Table: "sales", Pred: p})
			}
			rows, ex, _ := runPlanDeg(t, e, &plan.Scan{Tab: e.sales, Pred: scanPred}, cfg, deg)
			if want := trueRows(expr.And(p1, p2)); int64(len(rows)) != want {
				t.Errorf("f=%v degree %d: scan returned %d rows, want %d", f, deg, len(rows), want)
			}
			for i, r := range ex.DPCResults() {
				if r.Mechanism != mechs[i] {
					t.Fatalf("f=%v degree %d: %s answered by %s, want %s", f, deg, preds[i], r.Mechanism, mechs[i])
				}
				if r.Mechanism == MechDPSample && f < 1 {
					continue // a sampled estimate is exact only at fraction 1
				}
				if want := trueDPC(t, e.sales, preds[i]); r.DPC != want {
					t.Errorf("f=%v degree %d: DPC%s = %d, want %d", f, deg, preds[i], r.DPC, want)
				}
				if want := trueRows(preds[i]); r.Cardinality != want {
					t.Errorf("f=%v degree %d: cardinality of %s = %d, want %d", f, deg, preds[i], r.Cardinality, want)
				}
			}
		}
	}
}
