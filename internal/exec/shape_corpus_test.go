package exec

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pagefeedback/internal/catalog"
	"pagefeedback/internal/expr"
	"pagefeedback/internal/plan"
	"pagefeedback/internal/tuple"
)

// shapeCorpusPath pins plan shapes the SQL surface cannot reach — merge
// joins over every sort combination and over an index seek, INL self-joins
// whose outer is an index seek or intersection (outer and inner reads hit
// the same file, so their interleaving decides sequential vs random), hash
// joins over a seek build or an intersection probe — each run to
// completion and under LIMITs of 1, 3, 40 and 700. It was recorded on the
// batch-only executor and matched the previous executor's default path
// line for line.
var shapeCorpusPath = filepath.Join("testdata", "shape_corpus.golden")

// shapeCase is one hand-built plan with its optional monitor request.
type shapeCase struct {
	name string
	node plan.Node
	cfg  *MonitorConfig
}

func shapeCases(t *testing.T, e *env) []shapeCase {
	t.Helper()
	sales := func(c expr.Conjunction) expr.Conjunction { return mustBind(t, c, e.sales.Schema) }
	lt := func(col string, v int64) expr.Conjunction {
		return expr.And(expr.NewAtom(col, expr.Lt, tuple.Int64(v)))
	}
	index := func(name string) *catalog.Index {
		ix, ok := e.sales.IndexByName(name)
		if !ok {
			t.Fatalf("no index %s", name)
		}
		return ix
	}
	ranges := func(ix *catalog.Index, p expr.Conjunction) []expr.KeyRange {
		r, _, ok := expr.IndexRanges(p, ix.Cols)
		if !ok {
			t.Fatalf("%s: no ranges for %s", ix.Name, p)
		}
		return r
	}
	seek := func(name, col string, hi int64) plan.Node {
		ix := index(name)
		return &plan.Seek{Tab: e.sales, Index: ix, Ranges: ranges(ix, lt(col, hi)), Pred: sales(lt(col, hi))}
	}
	intersect := func(hi int64) plan.Node {
		a, b := index("ix_c2"), index("ix_c5")
		both := expr.And(expr.NewAtom("c2", expr.Lt, tuple.Int64(hi)), expr.NewAtom("c5", expr.Lt, tuple.Int64(hi)))
		return &plan.Intersect{Tab: e.sales, IndexA: a, RangesA: ranges(a, lt("c2", hi)),
			IndexB: b, RangesB: ranges(b, lt("c5", hi)), Pred: sales(both)}
	}
	dim := func(hi int64) plan.Node {
		if hi < 0 {
			return &plan.Scan{Tab: e.dim, Pred: expr.Conjunction{}}
		}
		return &plan.Scan{Tab: e.dim, Pred: mustBind(t, lt("val", hi), e.dim.Schema)}
	}
	salesScan := &plan.Scan{Tab: e.sales, Pred: expr.Conjunction{}}
	dimSales := joinPlanSchema(e)
	salesDim := plan.JoinSchema("sales", e.sales.Schema, "dim", e.dim.Schema)
	self := plan.JoinSchema("a", e.sales.Schema, "b", e.sales.Schema)
	joinMon := func(tab string) *MonitorConfig {
		return &MonitorConfig{Requests: []DPCRequest{{Table: tab, Join: true}}, SampleFraction: 1.0}
	}
	salesMon := &MonitorConfig{Requests: []DPCRequest{{Table: "sales"}}, SampleFraction: 1.0}

	base := []shapeCase{
		{"mj-sortouter", &plan.Join{Method: plan.MergeJoin, Outer: salesScan, Inner: dim(-1),
			OuterCol: "c5", InnerCol: "id", SortOuter: true, Schem: salesDim}, joinMon("dim")},
		{"mj-sortinner", &plan.Join{Method: plan.MergeJoin, Outer: dim(-1), Inner: salesScan,
			OuterCol: "id", InnerCol: "c5", SortInner: true, Schem: dimSales}, joinMon("sales")},
		{"mj-sortboth", &plan.Join{Method: plan.MergeJoin, Outer: dim(200), Inner: salesScan,
			OuterCol: "id", InnerCol: "c5", SortOuter: true, SortInner: true, Schem: dimSales}, joinMon("sales")},
		{"mj-clustered", &plan.Join{Method: plan.MergeJoin, Outer: dim(300), Inner: salesScan,
			OuterCol: "id", InnerCol: "id", Schem: dimSales}, joinMon("sales")},
		{"mj-seekouter", &plan.Join{Method: plan.MergeJoin, Outer: seek("ix_c2", "c2", 900), Inner: dim(-1),
			OuterCol: "id", InnerCol: "id", Schem: salesDim}, nil},
		{"inl-scanouter", &plan.Join{Method: plan.INLJoin, Outer: dim(150), OuterCol: "id", InnerCol: "c5",
			InnerTab: e.sales, InnerIndex: index("ix_c5"),
			InnerPred: sales(expr.And(expr.NewAtom("state", expr.Ne, tuple.Str("WA")))), Schem: dimSales}, joinMon("sales")},
		{"inl-self-seekouter", &plan.Join{Method: plan.INLJoin, Outer: seek("ix_c5", "c5", 120), OuterCol: "c2", InnerCol: "c5",
			InnerTab: e.sales, InnerIndex: index("ix_c5"), Schem: self}, salesMon},
		{"inl-self-intersectouter", &plan.Join{Method: plan.INLJoin, Outer: intersect(1500), OuterCol: "c5", InnerCol: "id",
			InnerTab: e.sales, InnerIndex: index("ix_id"), Schem: self}, nil},
		{"hj-intersectprobe", &plan.Join{Method: plan.HashJoin, Outer: dim(-1), Inner: intersect(2000),
			OuterCol: "id", InnerCol: "c5", Schem: dimSales}, nil},
		{"hj-seekbuild", &plan.Join{Method: plan.HashJoin, Outer: seek("ix_c5", "c5", 300), Inner: dim(-1),
			OuterCol: "c5", InnerCol: "id", Schem: salesDim}, nil},
		{"sort-seek", &plan.Sort{Input: seek("ix_c5", "c5", 900), Cols: []string{"c2"}}, salesMon},
		{"intersect", intersect(1200), salesMon},
	}
	cases := append([]shapeCase(nil), base...)
	for _, k := range []int{1, 3, 40, 700} {
		for _, c := range base {
			cases = append(cases, shapeCase{fmt.Sprintf("%s-limit%d", c.name, k), &plan.Limit{Input: c.node, N: k}, c.cfg})
		}
	}
	return cases
}

// renderShapeRun runs one case from a cold pool and renders what it reads,
// touches and reports.
func renderShapeRun(t *testing.T, e *env, c shapeCase) string {
	t.Helper()
	if err := e.pool.Reset(); err != nil {
		t.Fatal(err)
	}
	disk0, pool0 := e.pool.Disk().Stats(), e.pool.Stats()
	ctx := NewContext(e.pool)
	ex, err := Build(ctx, c.node, c.cfg)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	rows, err := ex.Run()
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	disk, pool := e.pool.Disk().Stats().Sub(disk0), e.pool.Stats().Sub(pool0)
	rendered := make([]string, len(rows))
	for i, r := range rows {
		rendered[i] = fmt.Sprint(r)
	}
	sum := sha256.Sum256([]byte(strings.Join(rendered, "\n")))
	var dpc []string
	for _, r := range ex.DPCResults() {
		dpc = append(dpc, fmt.Sprintf("%s/%d/%d/%v", r.Mechanism, r.DPC, r.Cardinality, r.Degraded))
	}
	return fmt.Sprintf("%s rows=%d %x touched=%d phys=%d rand=%d io=%v logical=%d dpc=%v tree=%s\n",
		c.name, len(rows), sum[:6], ctx.RowsTouched(), disk.PhysicalReads, disk.RandomReads,
		disk.SimulatedIO, pool.LogicalReads, dpc, opStatsTree(ex.Root.Stats()))
}

// opStatsTree renders the per-operator actual row counts.
func opStatsTree(s *OpStats) string {
	out := fmt.Sprintf("%s[%d]", s.Label, s.ActRows)
	if len(s.Children) > 0 {
		parts := make([]string, len(s.Children))
		for i, c := range s.Children {
			parts[i] = opStatsTree(c)
		}
		out += "(" + strings.Join(parts, ",") + ")"
	}
	return out
}

// TestShapeCorpus requires every hand-built shape to read the same pages in
// the same order, touch the same rows and report the same per-operator
// counts and DPC feedback as the golden record.
func TestShapeCorpus(t *testing.T) {
	e := newEnv(t)
	var b strings.Builder
	for _, c := range shapeCases(t, e) {
		b.WriteString(renderShapeRun(t, e, c))
	}
	want, err := os.ReadFile(shapeCorpusPath)
	if err != nil {
		t.Fatal(err)
	}
	got, wl := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wl); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s drifted at line %d\n got: %s\nwant: %s", shapeCorpusPath, i+1, g, w)
		}
	}
}
