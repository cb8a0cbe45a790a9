package exec

import (
	"pagefeedback/internal/catalog"
	"pagefeedback/internal/expr"
	"pagefeedback/internal/storage"
	"pagefeedback/internal/tuple"
)

// SEScan scans a table's data pages in physical order, evaluating the scan
// predicate inside the storage engine with short-circuiting — the Heap Scan
// / Clustered Index Scan of §III-B. It owns the grouped page access
// property, so attached monitors can count distinct pages exactly (prefix
// predicates) or via DPSample (everything else).
type SEScan struct {
	ctx      *Context
	tab      *catalog.Table
	cc       expr.Compiled    // the scan predicate, compiled
	rawCC    expr.RawCompiled // the predicate over encoded rows, when compilable
	krange   *expr.KeyRange   // clustered range seek, nil = full scan
	monitors []*scanMonitor
	stats    OpStats

	it      *catalog.RowIter
	batch   catalog.RowBatch
	failIdx []int // per batch row: first failing atom, -1 = row passes
	live    []int // current page's surviving rows
	pos     int   // next entry of live to deliver
	// lastRID is the RID of the last row delivered: for a merge join, which
	// pulls one row at a time, the inner row it is looking at (the RE→SE
	// callback for partial bit-vector filters reports it back).
	lastRID storage.RID
}

// NewSEScan builds a scan of tab filtered by pred (already bound to the
// table's schema).
func NewSEScan(ctx *Context, tab *catalog.Table, pred expr.Conjunction) *SEScan {
	return &SEScan{ctx: ctx, tab: tab, cc: compilePred(ctx, pred),
		rawCC: expr.CompileRaw(pred, tab.Schema),
		stats: OpStats{Label: "Scan(" + tab.Name + ")"}}
}

// NewSEClusterRangeScan builds a clustered index range seek over krange,
// still applying the full pred to each scanned row.
func NewSEClusterRangeScan(ctx *Context, tab *catalog.Table, pred expr.Conjunction, krange *expr.KeyRange) *SEScan {
	return &SEScan{ctx: ctx, tab: tab, cc: compilePred(ctx, pred),
		rawCC: expr.CompileRaw(pred, tab.Schema), krange: krange,
		stats: OpStats{Label: "RangeScan(" + tab.Name + ")"}}
}

// compilePred compiles pred at operator-construction time (single-threaded)
// and records a non-empty one in the execution context's statistics.
func compilePred(ctx *Context, pred expr.Conjunction) expr.Compiled {
	if len(pred.Atoms) > 0 && ctx != nil {
		ctx.noteCompiled()
	}
	return expr.Compile(pred)
}

// attach adds a monitor (called by the builder).
func (s *SEScan) attach(m *scanMonitor) { s.monitors = append(s.monitors, m) }

// Table returns the scanned table.
func (s *SEScan) Table() *catalog.Table { return s.tab }

// Open implements Operator.
func (s *SEScan) Open() error {
	var it *catalog.RowIter
	var err error
	if s.krange != nil {
		it, err = s.tab.ScanRange(*s.krange)
	} else {
		it, err = s.tab.ScanAll()
	}
	if err != nil {
		return err
	}
	s.it = it
	s.live = s.live[:0]
	s.pos = 0
	return nil
}

// NextBatch implements Operator. The scan is page-batched: each data page
// is pinned once and filtered as a whole (loadPage), and its survivors are
// handed up with a selection vector over the page's rows — all of them, or
// at most Batch.Max per call when the consumer advances row by row.
func (s *SEScan) NextBatch(b *Batch) (int, error) {
	for s.pos >= len(s.live) {
		ok, err := s.loadPage()
		if err != nil || !ok {
			return 0, err
		}
	}
	live := s.live[s.pos:]
	if b.Max > 0 && len(live) > b.Max {
		live = live[:b.Max]
	}
	s.pos += len(live)
	s.lastRID = s.batch.RIDs[live[len(live)-1]]
	b.Rows = s.batch.Rows
	b.Sel = append(b.Sel[:0], live...)
	s.stats.ActRows += int64(len(live))
	s.ctx.noteBatch()
	return len(live), nil
}

// loadPage pins and filters the next data page: poll cancellation, charge
// CPU for every row on the page, and select the survivors. With monitors
// attached the predicate is evaluated atom by atom per row (prefix monitors
// reuse the short-circuited results, §III-B) and every monitor observes the
// page in one callback. Without monitors nothing needs the per-row
// first-failing atom: the predicate runs over the encoded page bytes when
// it compiled to the raw evaluator (only survivors are decoded), else
// column-at-a-time over the decoded page. Returns false at end of scan,
// after closing the monitors' last page.
func (s *SEScan) loadPage() (bool, error) {
	s.pos, s.live = 0, s.live[:0]
	if len(s.monitors) == 0 && s.rawCC.OK() {
		total, ok := s.it.NextPageFiltered(&s.batch, s.rawCC.Eval)
		if !ok {
			return false, s.it.Err()
		}
		if err := s.ctx.interrupted(); err != nil {
			return false, err
		}
		s.ctx.touch(int64(total))
		s.live = identSel(s.live, s.batch.Len())
		return true, nil
	}
	if !s.it.NextPage(&s.batch) {
		if err := s.it.Err(); err != nil {
			return false, err
		}
		for _, m := range s.monitors {
			m.safeFinish()
		}
		return false, nil
	}
	if err := s.ctx.interrupted(); err != nil {
		return false, err
	}
	s.ctx.touch(int64(s.batch.Len()))
	s.live = identSel(s.live, s.batch.Len())
	if len(s.monitors) == 0 {
		s.live = s.cc.EvalBatch(s.batch.Rows, s.live)
		return true, nil
	}
	s.failIdx = s.failIdx[:0]
	for _, row := range s.batch.Rows {
		s.failIdx = append(s.failIdx, s.cc.FirstFail(row))
	}
	for _, m := range s.monitors {
		m.safeObservePage(&s.batch, s.failIdx)
	}
	s.live = s.live[:0]
	for i, fi := range s.failIdx {
		if fi == -1 {
			s.live = append(s.live, i)
		}
	}
	return true, nil
}

// lateMatch forwards a late join-match notification to join-filter monitors.
func (s *SEScan) lateMatch(rid storage.RID) {
	for _, m := range s.monitors {
		m.safeLateMatch(rid)
	}
}

// Close implements Operator.
func (s *SEScan) Close() error {
	if s.it != nil {
		s.it.Close()
	}
	return nil
}

// Schema implements Operator.
func (s *SEScan) Schema() *tuple.Schema { return s.tab.Schema }

// Stats implements Operator.
func (s *SEScan) Stats() *OpStats { return &s.stats }

// CoveringScan scans every leaf of a secondary index whose columns cover the
// query; no table pages are touched, so table-page DPC monitors cannot be
// attached here (the monitor planner reports them unsatisfiable).
type CoveringScan struct {
	ctx    *Context
	ix     *catalog.Index
	cc     expr.Compiled // the predicate over the index columns, compiled
	schema *tuple.Schema
	stats  OpStats

	it       *catalog.EntryIter
	out      rowArena       // the batch being built
	lastLeaf storage.PageID // leaf of the previous entry, for page-granular polling
	started  bool
}

// NewCoveringScan builds a covering scan of ix. pred must be bound to the
// index-column schema.
func NewCoveringScan(ctx *Context, ix *catalog.Index, pred expr.Conjunction, schema *tuple.Schema) *CoveringScan {
	return &CoveringScan{
		ctx: ctx, ix: ix, cc: compilePred(ctx, pred), schema: schema,
		stats: OpStats{Label: "CoveringScan(" + ix.Table.Name + "." + ix.Name + ")"},
	}
}

// Open implements Operator.
func (s *CoveringScan) Open() error {
	it, err := s.ix.SeekRange(expr.KeyRange{}) // full index scan
	if err != nil {
		return err
	}
	s.it = it
	return nil
}

// NextBatch implements Operator: index entries are read one at a time and
// the satisfying ones accumulate until the batch holds Batch.rowCap rows.
// Cancellation is polled once per index leaf.
func (s *CoveringScan) NextBatch(b *Batch) (int, error) {
	limit := b.rowCap()
	s.out.vals = s.out.vals[:0]
	s.out.bounds = s.out.bounds[:0]
	for s.out.n() < limit && s.it.Next() {
		if leaf := s.it.LeafPage(); !s.started || leaf != s.lastLeaf {
			if err := s.ctx.interrupted(); err != nil {
				return 0, err
			}
			s.started = true
			s.lastLeaf = leaf
		}
		s.ctx.touch(1)
		if row := tuple.Row(s.it.Values()); s.cc.Eval(row) {
			s.out.vals = append(s.out.vals, row...)
			s.out.endRow()
		}
	}
	if err := s.it.Err(); err != nil {
		return 0, err
	}
	n := s.out.emit(b)
	if n > 0 {
		s.stats.ActRows += int64(n)
		s.ctx.noteBatch()
	}
	return n, nil
}

// Close implements Operator.
func (s *CoveringScan) Close() error {
	if s.it != nil {
		s.it.Close()
	}
	return nil
}

// Schema implements Operator.
func (s *CoveringScan) Schema() *tuple.Schema { return s.schema }

// Stats implements Operator.
func (s *CoveringScan) Stats() *OpStats { return &s.stats }
