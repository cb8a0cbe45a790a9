package pagefeedback

import (
	"strings"
	"testing"

	"pagefeedback/internal/exec"
)

// buildVecDB is buildTestDB plus a join partner u(c1, fk) whose fk column is
// unindexed on both sides of the join it is used in, forcing a hash join.
func buildVecDB(t *testing.T, n int) *Engine {
	t.Helper()
	eng := buildTestDB(t, n)
	uschema := NewSchema(
		Column{Name: "c1", Kind: KindInt},
		Column{Name: "fk", Kind: KindInt},
	)
	if _, err := eng.CreateClusteredTable("u", uschema, []string{"c1"}); err != nil {
		t.Fatal(err)
	}
	urows := make([]Row, n/4)
	for i := range urows {
		urows[i] = Row{Int64(int64(i)), Int64(int64((i * 7) % n))}
	}
	if err := eng.Load("u", urows); err != nil {
		t.Fatal(err)
	}
	if err := eng.Analyze("u"); err != nil {
		t.Fatal(err)
	}
	return eng
}

// vecParityQueries covers the common operators: predicate scans, an
// index-driven selection, projection, LIMIT, ORDER BY, GROUP BY,
// aggregation, and a hash join on unindexed columns.
var vecParityQueries = []string{
	"SELECT COUNT(padding) FROM t WHERE c2 < 2000",
	"SELECT c1, c5 FROM t WHERE c5 < 500",
	"SELECT c1 FROM t WHERE c5 < 100",
	"SELECT c2, COUNT(*) FROM t WHERE c1 < 3000 GROUP BY c2",
	"SELECT c1, c2 FROM t WHERE c1 < 5000 LIMIT 37",
	"SELECT c1, c5 FROM t WHERE c5 < 300 ORDER BY c5",
	"SELECT COUNT(padding) FROM t, u WHERE u.c1 < 500 AND u.fk = t.c5",
}

// renderRows renders result rows in order: order is part of a result, not
// just content.
func renderRows(res *Result) []string {
	out := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		var b strings.Builder
		for i, v := range r {
			if i > 0 {
				b.WriteByte('|')
			}
			b.WriteString(v.String())
		}
		out = append(out, b.String())
	}
	return out
}

// renderDPCResults renders the monitored feedback in result order.
func renderDPCResults(res *Result) []string {
	out := make([]string, 0, len(res.DPC))
	for _, r := range res.DPC {
		e := r.Request.Pred.String()
		if r.Request.Join {
			e = "<join>"
		}
		out = append(out, strings.Join([]string{
			r.Request.Table, e, r.Mechanism,
		}, "|")+"|"+renderInt(r.DPC)+"|"+renderInt(r.Cardinality))
	}
	return out
}

func renderInt(v int64) string { return Int64(v).String() }

// deterministicRuntime zeroes the fields of a runtime-stats record that are
// timing- or batch-shape-dependent, leaving the slice that is part of the
// statistics contract: simulated cost, read counts, rows touched, memory
// peak, monitor accounting, compiled predicates.
func deterministicRuntime(rt exec.RuntimeStats) exec.RuntimeStats {
	rt.QueueWait, rt.QueueDepth = 0, 0
	rt.PoolWaits, rt.PoolWaitTime = 0, 0
	rt.PrefetchedPages = 0
	rt.PlanCacheHit = false
	rt.BatchesProcessed = 0
	return rt
}

// TestVectorizedRawPathParity: unmonitored scans of fixed-width tables take
// the late-materializing raw path (the predicate judged on encoded page
// bytes, only survivors decoded), monitored ones decode every row so the
// monitors can observe it. The raw path must be invisible: the same rows,
// rows touched and deterministic runtime stats as the decoding path, on a
// second engine that ran the same sequence.
func TestVectorizedRawPathParity(t *testing.T) {
	rawEng := buildVecDB(t, 12000)
	decEng := buildVecDB(t, 12000)
	for _, q := range vecParityQueries {
		raw, err := rawEng.Query(q, nil)
		if err != nil {
			t.Fatalf("%s (raw): %v", q, err)
		}
		dec, err := decEng.Query(q, &RunOptions{MonitorAll: true})
		if err != nil {
			t.Fatalf("%s (decoding): %v", q, err)
		}
		if got, want := renderRows(raw), renderRows(dec); !equalStringSlices(got, want) {
			t.Errorf("%s: rows diverge between paths\n raw: %v\n dec: %v", q, got, want)
		}
		if got, want := deterministicRuntime(raw.Stats.Runtime), deterministicRuntime(dec.Stats.Runtime); got != want {
			t.Errorf("%s: runtime stats diverge\n raw: %+v\n dec: %+v", q, got, want)
		}
	}
}

func equalStringSlices(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
