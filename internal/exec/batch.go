package exec

import (
	"pagefeedback/internal/catalog"
	"pagefeedback/internal/expr"
	"pagefeedback/internal/storage"
	"pagefeedback/internal/tuple"
)

// BatchSize caps how many rows an operator that builds its batch row by row
// accumulates before handing it to its parent. Scans ignore it — their
// natural batch is the data page (§III-B's grouped page access).
const BatchSize = 1024

// Batch is the unit of execution: a slice of rows plus a selection vector of
// the indices that are live. Operators filter by compacting Sel instead of
// materializing survivors, so a selective filter over a page batch touches
// no row memory at all.
//
// Max and Need are row caps a consumer sets on the batch it passes down.
// They bound cost, not correctness: a consumer accepts any batch it gets.
type Batch struct {
	Rows []tuple.Row
	Sel  []int
	// Max, when positive, caps the live rows the consumer takes from this
	// call. Merge and INL joins ask for one row at a time from the inputs
	// they advance row by row, so a scan reads its next page, and counts a
	// row as produced, exactly when the join needs it. Serial scans, seeks
	// and the operators that build their batch row by row honor it.
	Max int
	// Need, when positive, is how many more rows a LIMIT above still wants.
	// The operators that build their batch from one input row or index
	// entry at a time — Sort, MergeJoin, INLJoin, CoveringScan and
	// IndexIntersect — stop there, so a LIMIT over them reads and touches
	// only what the rows it returns cost. Scans and index seeks ignore it:
	// a page, or a full seek batch, is their unit of work.
	Need int
}

// Len returns the number of live rows in the batch.
func (b *Batch) Len() int { return len(b.Sel) }

// rowCap returns how many rows an operator that builds its batch row by row
// may put in b: the tighter of Max and Need, or BatchSize when neither is
// set.
func (b *Batch) rowCap() int {
	n := BatchSize
	if b.Max > 0 && b.Max < n {
		n = b.Max
	}
	if b.Need > 0 && b.Need < n {
		n = b.Need
	}
	return n
}

// identSel resets sel to the identity selection [0..n) and returns it.
// Operators that emit fully dense batches (every row live) use it to rebuild
// the caller's selection vector in place.
func identSel(sel []int, n int) []int {
	sel = sel[:0]
	for i := 0; i < n; i++ {
		sel = append(sel, i)
	}
	return sel
}

// rowArena accumulates output rows for operators that build their batch one
// row at a time: a row's values are appended to vals, endRow closes it, and
// the row views are cut only once the arena has stopped growing (appends may
// move it). The owner truncates vals and bounds to length zero at the start
// of every batch, so the arena is transient, batch-bounded, high-water
// reused memory and is not charged to the memory budget.
type rowArena struct {
	vals   []tuple.Value
	bounds []int // prefix lengths into vals, one per row
	rows   []tuple.Row
}

// endRow closes the row whose values were appended since the last one.
func (a *rowArena) endRow() { a.bounds = append(a.bounds, len(a.vals)) }

// fetch decodes the row at rid from tab straight into the arena — the
// random-I/O Fetch — and keeps it, closing the row, when cc accepts it. A
// rejected row's values are dropped back to start, keeping the grown
// capacity; start is where the row began, before any values the caller
// appended in front of the fetched ones.
func (a *rowArena) fetch(tab *catalog.Table, rid storage.RID, cc expr.Compiled, start int) (bool, error) {
	lo := len(a.vals)
	vals, err := tab.FetchRowAppend(a.vals, rid)
	if err != nil {
		return false, err
	}
	if !cc.Eval(tuple.Row(vals[lo:])) {
		a.vals = vals[:start]
		return false, nil
	}
	a.vals = vals
	a.endRow()
	return true, nil
}

// n returns the number of accumulated rows.
func (a *rowArena) n() int { return len(a.bounds) }

// emit hands the accumulated rows to b as a dense batch and returns their
// count.
func (a *rowArena) emit(b *Batch) int {
	a.rows = a.rows[:0]
	lo := 0
	for _, hi := range a.bounds {
		a.rows = append(a.rows, tuple.Row(a.vals[lo:hi:hi]))
		lo = hi
	}
	b.Rows = a.rows
	b.Sel = identSel(b.Sel, len(a.rows))
	return len(a.rows)
}

// rowCursor reads a child one row at a time, for the joins that advance
// their inputs row by row. Each pull asks for a single row (Batch.Max = 1),
// so the child reads a page, and counts a row as produced, only when the
// join needs the row.
type rowCursor struct {
	in  Operator
	b   Batch
	pos int
}

// next returns the next row, valid until the following call, or ok=false
// at end of stream.
func (c *rowCursor) next() (row tuple.Row, ok bool, err error) {
	for c.pos >= len(c.b.Sel) {
		c.b.Max = 1
		n, err := c.in.NextBatch(&c.b)
		if err != nil || n == 0 {
			c.b.Sel = c.b.Sel[:0]
			return nil, false, err
		}
		c.pos = 0
	}
	row = c.b.Rows[c.b.Sel[c.pos]]
	c.pos++
	return row, true, nil
}

// reset forgets any buffered rows (on re-open).
func (c *rowCursor) reset() {
	c.b.Sel = c.b.Sel[:0]
	c.pos = 0
}
