package exec

import (
	"testing"

	"pagefeedback/internal/tuple"
)

// countingSource is a stub child that emits rows forever and counts exactly
// how it is driven, so tests can assert an operator stopped pulling — not
// just that it stopped emitting. Each batch holds batchRows rows; when
// rowByRow is set it also honors the consumer's row caps, like an operator
// that builds its batch one row at a time.
type countingSource struct {
	schema     *tuple.Schema
	rowByRow   bool
	finite     bool // emit the rows once, then end of stream
	batchCalls int
	produced   int
	closes     int
	rows       []tuple.Row
	stats      OpStats
}

func newCountingSource(batchRows int, rowByRow bool) *countingSource {
	s := &countingSource{
		schema:   tuple.NewSchema(tuple.Column{Name: "v", Kind: tuple.KindInt}),
		rowByRow: rowByRow,
		stats:    OpStats{Label: "CountingSource"},
	}
	for i := 0; i < batchRows; i++ {
		s.rows = append(s.rows, tuple.Row{tuple.Int64(int64(i))})
	}
	return s
}

func (s *countingSource) Open() error { return nil }

func (s *countingSource) NextBatch(b *Batch) (int, error) {
	s.batchCalls++
	if s.finite && s.produced > 0 {
		return 0, nil
	}
	n := len(s.rows)
	if c := b.rowCap(); s.rowByRow && c < n {
		n = c
	}
	s.produced += n
	b.Rows = s.rows[:n]
	b.Sel = identSel(b.Sel, n)
	return n, nil
}

func (s *countingSource) Close() error { s.closes++; return nil }

func (s *countingSource) Schema() *tuple.Schema { return s.schema }

func (s *countingSource) Stats() *OpStats { return &s.stats }

// drainLimit pulls lim to end of stream and returns its batch sizes.
func drainLimit(t *testing.T, lim *LimitOp) []int {
	t.Helper()
	if err := lim.Open(); err != nil {
		t.Fatal(err)
	}
	var b Batch
	var sizes []int
	for {
		n, err := lim.NextBatch(&b)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		if n != len(b.Sel) {
			t.Fatalf("NextBatch returned n=%d but |Sel|=%d", n, len(b.Sel))
		}
		sizes = append(sizes, n)
	}
	if err := lim.Close(); err != nil {
		t.Fatal(err)
	}
	return sizes
}

// TestLimitBatchEarlyExit pins the limit contract over a child with a fixed
// batch unit (a scan's page): a batch that crosses the limit is truncated by
// shrinking its selection vector, and once the limit is hit the child is
// never pulled again — over an unbounded child, anything else would hang or
// over-read.
func TestLimitBatchEarlyExit(t *testing.T) {
	ctx := NewContext(nil)
	src := newCountingSource(10, false)
	lim, err := NewLimit(ctx, src, 25)
	if err != nil {
		t.Fatal(err)
	}
	sizes := drainLimit(t, lim)
	if len(sizes) != 3 || sizes[0] != 10 || sizes[1] != 10 || sizes[2] != 5 {
		t.Fatalf("batch sizes = %v, want [10 10 5]", sizes)
	}
	if src.batchCalls != 3 {
		t.Fatalf("child pulled %d times, want exactly 3 (no pull after the limit is hit)", src.batchCalls)
	}
	if src.closes != 1 {
		t.Fatalf("child closed %d times, want 1", src.closes)
	}
	if got := ctx.BatchesProcessed(); got != 3 {
		t.Errorf("BatchesProcessed = %d, want 3", got)
	}
}

// TestLimitRowEarlyExit: over a child that builds its batch row by row, the
// limit's remaining count (Batch.Need) stops the child at exactly the rows
// the limit returns — the cost of pulling one row at a time.
func TestLimitRowEarlyExit(t *testing.T) {
	ctx := NewContext(nil)
	src := newCountingSource(BatchSize, true)
	lim, err := NewLimit(ctx, src, 25)
	if err != nil {
		t.Fatal(err)
	}
	sizes := drainLimit(t, lim)
	if len(sizes) != 1 || sizes[0] != 25 {
		t.Fatalf("batch sizes = %v, want [25]", sizes)
	}
	if src.produced != 25 {
		t.Fatalf("child produced %d rows, want exactly 25", src.produced)
	}
	if src.closes != 1 {
		t.Fatalf("child closed %d times, want 1", src.closes)
	}
}

// TestRowCapsBoundBatches: Max caps one call and wins over a larger Need;
// Need caps an operator that builds its batch row by row; with neither set
// a batch holds up to BatchSize rows. The row cursor the merge and INL
// joins read through asks for one row per pull.
func TestRowCapsBoundBatches(t *testing.T) {
	ctx := NewContext(nil)
	rows := make([]tuple.Row, 2500)
	for i := range rows {
		rows[i] = tuple.Row{tuple.Int64(int64(len(rows) - i))}
	}
	src := newCountingSource(0, false)
	src.rows, src.finite = rows, true
	sort := NewSort(ctx, src, []int{0})
	if err := sort.Open(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ max, need, want int }{
		{1, 0, 1}, {1, 7, 1}, {0, 7, 7}, {9, 4, 4}, {0, 0, BatchSize},
	} {
		b := Batch{Max: c.max, Need: c.need}
		n, err := sort.NextBatch(&b)
		if err != nil {
			t.Fatal(err)
		}
		if n != c.want {
			t.Errorf("Max=%d Need=%d: batch of %d rows, want %d", c.max, c.need, n, c.want)
		}
	}
	if got, want := sort.Stats().ActRows, int64(1+1+7+4+BatchSize); got != want {
		t.Errorf("Sort ActRows = %d, want %d (rows handed up, not rows held)", got, want)
	}
	cur := rowCursor{in: sort}
	prev := int64(0)
	for {
		row, ok, err := cur.next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if row[0].Int <= prev {
			t.Fatalf("cursor out of order: %d after %d", row[0].Int, prev)
		}
		prev = row[0].Int
		if cur.b.Len() != 1 {
			t.Fatalf("cursor pulled a batch of %d rows, want 1", cur.b.Len())
		}
	}
	if prev != int64(len(rows)) {
		t.Errorf("cursor ended at %d, want %d", prev, len(rows))
	}
}
