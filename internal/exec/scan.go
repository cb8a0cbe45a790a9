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
	filt     scanFilter
	krange   *expr.KeyRange // clustered range seek, nil = full scan
	monitors []*scanMonitor
	stats    OpStats

	it  *catalog.RowIter
	pg  pageSel
	pos int // next entry of pg.live to deliver
	// lastRID is the RID of the last row delivered: for a merge join, which
	// pulls one row at a time, the inner row it is looking at (the RE→SE
	// callback for partial bit-vector filters reports it back).
	lastRID storage.RID
}

// NewSEScan builds a scan of tab filtered by pred (already bound to the
// table's schema).
func NewSEScan(ctx *Context, tab *catalog.Table, pred expr.Conjunction) *SEScan {
	return &SEScan{ctx: ctx, tab: tab, filt: newScanFilter(ctx, pred, tab.Schema),
		stats: OpStats{Label: "Scan(" + tab.Name + ")"}}
}

// NewSEClusterRangeScan builds a clustered index range seek over krange,
// still applying the full pred to each scanned row.
func NewSEClusterRangeScan(ctx *Context, tab *catalog.Table, pred expr.Conjunction, krange *expr.KeyRange) *SEScan {
	return &SEScan{ctx: ctx, tab: tab, filt: newScanFilter(ctx, pred, tab.Schema), krange: krange,
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
	s.pg.live = s.pg.live[:0]
	s.pos = 0
	return nil
}

// NextBatch implements Operator. The scan is page-batched: each data page
// is pinned once and filtered as a whole (scanFilter.next), and its
// survivors are handed up with a selection vector over the page's rows —
// all of them, or at most Batch.Max per call when the consumer advances row
// by row.
func (s *SEScan) NextBatch(b *Batch) (int, error) {
	for s.pos >= len(s.pg.live) {
		s.pos = 0
		ok, err := s.filt.next(s.ctx, s.it, s.monitors, &s.pg)
		if err != nil || !ok {
			return 0, err
		}
	}
	live := s.pg.live[s.pos:]
	if b.Max > 0 && len(live) > b.Max {
		live = live[:b.Max]
	}
	s.pos += len(live)
	s.lastRID = s.pg.batch.RIDs[live[len(live)-1]]
	b.Rows = s.pg.batch.Rows
	b.Sel = append(b.Sel[:0], live...)
	s.stats.ActRows += int64(len(live))
	s.ctx.noteBatch()
	return len(live), nil
}

// scanFilter is a scan predicate compiled for both ways of filtering a
// page: cc over decoded rows, and raw over the encoded cells when every atom
// reads a column of the schema's leading fixed-width run (raw.OK()). It is
// read-only after construction, so the workers of a parallel scan share one.
type scanFilter struct {
	cc  expr.Compiled
	raw expr.RawCompiled
}

func newScanFilter(ctx *Context, pred expr.Conjunction, schema *tuple.Schema) scanFilter {
	return scanFilter{cc: compilePred(ctx, pred), raw: expr.CompileRaw(pred, schema)}
}

// pageSel is the page buffer and survivor selection of one page iterator:
// a serial scan's, or one parallel-scan worker's.
type pageSel struct {
	batch catalog.RowBatch
	live  []int // the page's surviving rows, as indices into batch.Rows
	// fails[k] counts the page's rows whose first failing atom is k — with
	// the survivor count, what prefix monitors observe. Kept only when
	// monitors are attached.
	fails []int
	// whole is set when batch holds every row of the page, not only the
	// survivors: the predicate did not compile raw, or a monitor samples
	// the page and evaluates its own predicate on every row. failIdx then
	// holds each row's first failing atom, -1 = the row passes.
	whole   bool
	failIdx []int
	fresh   bool                           // no cell of the current page judged yet
	judge   func(storage.RID, []byte) bool // the raw path's cell judge, bound once
}

// judgeCells returns pg's NextPageFiltered callback, built on first use (f
// and mons are the same on every call for one iterator). It judges a cell on
// its bytes and, with monitors attached, counts its first failing atom and
// keeps every cell of a page some monitor samples.
func (pg *pageSel) judgeCells(f *scanFilter, mons []*scanMonitor) func(storage.RID, []byte) bool {
	if pg.judge == nil {
		pg.judge = func(rid storage.RID, enc []byte) bool {
			fi := f.raw.FirstFail(enc)
			if len(mons) == 0 {
				return fi < 0
			}
			if pg.fresh {
				pg.fresh = false
				pg.whole = samplesPage(mons, rid.Page)
			}
			if fi >= 0 {
				pg.fails[fi]++
			}
			if pg.whole {
				pg.failIdx = append(pg.failIdx, fi)
				return true
			}
			return fi < 0
		}
	}
	return pg.judge
}

// next pins and filters the next data page of it into pg: poll
// cancellation, charge ctx CPU for every row on the page, and select the
// survivors into pg.live. When the predicate compiled raw, every row is
// judged on the page bytes and only survivors are decoded — unless a
// sampling or join-filter monitor samples the page, which needs every row.
// Otherwise the page is decoded whole and filtered column-at-a-time, or atom
// by atom when monitors need each row's first failing atom. Every monitor
// observes the page in one callback. Returns false at end of scan, after
// closing the monitors' last page.
func (f *scanFilter) next(ctx *Context, it *catalog.RowIter, mons []*scanMonitor, pg *pageSel) (bool, error) {
	pg.live = pg.live[:0]
	pg.failIdx = pg.failIdx[:0]
	pg.whole = !f.raw.OK()
	pg.fresh = true
	if len(mons) > 0 {
		if pg.fails == nil {
			pg.fails = make([]int, f.cc.Len())
		}
		clear(pg.fails)
	}
	var total int
	var ok bool
	if f.raw.OK() {
		total, ok = it.NextPageFiltered(&pg.batch, pg.judgeCells(f, mons))
	} else {
		ok = it.NextPage(&pg.batch)
		total = pg.batch.Len()
	}
	if !ok {
		if err := it.Err(); err != nil {
			return false, err
		}
		for _, m := range mons {
			m.safeFinish()
		}
		return false, nil
	}
	if err := ctx.interrupted(); err != nil {
		return false, err
	}
	ctx.touch(int64(total))
	if len(mons) == 0 {
		pg.live = identSel(pg.live, pg.batch.Len())
		if !f.raw.OK() {
			pg.live = f.cc.EvalBatch(pg.batch.Rows, pg.live)
		}
		return true, nil
	}
	if !f.raw.OK() {
		for _, row := range pg.batch.Rows {
			fi := f.cc.FirstFail(row)
			if fi >= 0 {
				pg.fails[fi]++
			}
			pg.failIdx = append(pg.failIdx, fi)
		}
	}
	if pg.whole {
		for i, fi := range pg.failIdx {
			if fi == -1 {
				pg.live = append(pg.live, i)
			}
		}
	} else {
		pg.live = identSel(pg.live, pg.batch.Len())
	}
	hits := pageHits{pass: len(pg.live), fails: pg.fails}
	for _, m := range mons {
		m.safeObservePage(&pg.batch, hits)
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
