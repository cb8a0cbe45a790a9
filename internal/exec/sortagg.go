package exec

import (
	"fmt"
	"sort"

	"pagefeedback/internal/expr"
	"pagefeedback/internal/tuple"
)

// SortOp materializes and orders its input ascending by the given columns.
// When a bit-vector filter is wired in, each drained row's join value is
// added — since Open drains the child completely before anything
// downstream (in particular a Merge Join's inner scan) runs, the filter is
// complete in time, the property §IV relies on.
type SortOp struct {
	ctx    *Context
	input  Operator
	ords   []int
	desc   bool
	schema *tuple.Schema
	stats  OpStats

	filter    *filterSink
	filterOrd int

	rows []tuple.Row
	pos  int
}

// NewSort constructs the operator; ords are the sort-column ordinals.
func NewSort(ctx *Context, input Operator, ords []int) *SortOp {
	return &SortOp{ctx: ctx, input: input, ords: ords, schema: input.Schema(),
		stats: OpStats{Label: "Sort"}}
}

// SetFilter wires a bit-vector filter to fill with column ord while draining.
func (s *SortOp) SetFilter(f *filterSink, ord int) {
	s.filter = f
	s.filterOrd = ord
}

// SetDesc switches the sort to descending order.
func (s *SortOp) SetDesc(desc bool) { s.desc = desc }

// Open implements Operator: drains and sorts the input. The input is
// always closed before Open returns — even on error — so no page pins
// outlive the operator.
func (s *SortOp) Open() error {
	if err := s.input.Open(); err != nil {
		return err
	}
	s.rows = s.rows[:0]
	var b Batch
	for {
		n, err := s.input.NextBatch(&b)
		if err != nil {
			s.input.Close() // release pins held mid-batch (e.g. decode errors)
			return err
		}
		if n == 0 {
			break
		}
		s.ctx.touch(int64(n))
		for _, i := range b.Sel {
			row := b.Rows[i]
			if s.filter != nil {
				s.filter.Add(row[s.filterOrd])
			}
			if err := s.ctx.Mem.Grow(rowMemSize(row)); err != nil {
				s.input.Close()
				return err
			}
			s.rows = append(s.rows, row.Clone())
		}
	}
	if err := s.input.Close(); err != nil {
		return err
	}
	sort.SliceStable(s.rows, func(i, j int) bool {
		for _, o := range s.ords {
			if c := s.rows[i][o].Compare(s.rows[j][o]); c != 0 {
				if s.desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	s.pos = 0
	return nil
}

// NextBatch implements Operator: the next Batch.rowCap sorted rows, handed
// up as a dense slice of the sorted buffer.
func (s *SortOp) NextBatch(b *Batch) (int, error) {
	n := len(s.rows) - s.pos
	if n <= 0 {
		return 0, nil
	}
	if c := b.rowCap(); n > c {
		n = c
	}
	b.Rows = s.rows[s.pos : s.pos+n]
	b.Sel = identSel(b.Sel, n)
	s.pos += n
	s.stats.ActRows += int64(n)
	s.ctx.noteBatch()
	return n, nil
}

// Close implements Operator.
func (s *SortOp) Close() error {
	s.rows = nil
	return nil
}

// Schema implements Operator.
func (s *SortOp) Schema() *tuple.Schema { return s.schema }

// Stats implements Operator.
func (s *SortOp) Stats() *OpStats { return &s.stats }

// FilterOp applies a residual predicate in the relational engine.
type FilterOp struct {
	ctx   *Context
	input Operator
	cc    expr.Compiled // the residual predicate, compiled
	stats OpStats
}

// NewFilter constructs the operator.
func NewFilter(ctx *Context, input Operator, pred expr.Conjunction) *FilterOp {
	return &FilterOp{ctx: ctx, input: input, cc: compilePred(ctx, pred),
		stats: OpStats{Label: "Filter(" + pred.String() + ")"}}
}

// Open implements Operator.
func (f *FilterOp) Open() error { return f.input.Open() }

// NextBatch implements Operator: the filter never materializes rows, it
// only compacts the batch's selection vector, column-at-a-time. The
// consumer's row caps pass through to the input unchanged.
func (f *FilterOp) NextBatch(b *Batch) (int, error) {
	for {
		n, err := f.input.NextBatch(b)
		if err != nil || n == 0 {
			return 0, err
		}
		f.ctx.touch(int64(n))
		b.Sel = f.cc.EvalBatch(b.Rows, b.Sel)
		if len(b.Sel) == 0 {
			continue
		}
		f.stats.ActRows += int64(len(b.Sel))
		f.ctx.noteBatch()
		return len(b.Sel), nil
	}
}

// Close implements Operator.
func (f *FilterOp) Close() error { return f.input.Close() }

// Schema implements Operator.
func (f *FilterOp) Schema() *tuple.Schema { return f.input.Schema() }

// Stats implements Operator.
func (f *FilterOp) Stats() *OpStats { return &f.stats }

// AggOp computes one ungrouped aggregate (COUNT/SUM/MIN/MAX) over its input
// and emits a single row.
type AggOp struct {
	ctx    *Context
	input  Operator
	fn     byte // 'c','s','m','M'
	ord    int  // column ordinal; -1 for COUNT(*)
	schema *tuple.Schema
	stats  OpStats

	done bool
	out  [1]tuple.Row
}

// NewAgg constructs the operator. fn is one of "count", "sum", "min", "max";
// ord is the input column ordinal (-1 for COUNT(*)).
func NewAgg(ctx *Context, input Operator, fn string, ord int, schema *tuple.Schema) (*AggOp, error) {
	var code byte
	switch fn {
	case "count":
		code = 'c'
	case "sum":
		code = 's'
	case "min":
		code = 'm'
	case "max":
		code = 'M'
	default:
		return nil, fmt.Errorf("exec: unknown aggregate %q", fn)
	}
	if code != 'c' && ord < 0 {
		return nil, fmt.Errorf("exec: %s requires a column", fn)
	}
	if ord >= 0 && code != 'c' && input.Schema().Column(ord).Kind == tuple.KindString {
		return nil, fmt.Errorf("exec: %s over a string column is not supported", fn)
	}
	return &AggOp{ctx: ctx, input: input, fn: code, ord: ord, schema: schema,
		stats: OpStats{Label: "Aggregate(" + fn + ")"}}, nil
}

// Open implements Operator.
func (a *AggOp) Open() error {
	a.done = false
	return a.input.Open()
}

// NextBatch implements Operator: the first call drains the input batch by
// batch (CPU charged per batch of live rows) and delivers the aggregate as
// a one-row batch; later calls are end of stream. The fold uses
// kind-specialized loops, the switch hoisted out of the per-row path.
func (a *AggOp) NextBatch(b *Batch) (int, error) {
	if a.done {
		return 0, nil
	}
	var count, sum int64
	var minV, maxV tuple.Value
	first := true
	var in Batch
	for {
		n, err := a.input.NextBatch(&in)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			break
		}
		a.ctx.touch(int64(n))
		switch a.fn {
		case 'c':
			// COUNT(col) counts rows like COUNT(*) does (the engine has no
			// NULLs), so the whole selection folds at once.
			count += int64(n)
		case 's':
			for _, i := range in.Sel {
				if v := in.Rows[i][a.ord]; v.Kind != tuple.KindString {
					sum += v.Int
				}
			}
		default:
			for _, i := range in.Sel {
				v := in.Rows[i][a.ord]
				if first || v.Compare(minV) < 0 {
					minV = v
				}
				if first || v.Compare(maxV) > 0 {
					maxV = v
				}
				first = false
			}
		}
	}
	a.done = true
	a.stats.ActRows = 1
	var out int64
	switch a.fn {
	case 'c':
		out = count
	case 's':
		out = sum
	case 'm':
		if !first {
			out = minV.Int
		}
	default:
		if !first {
			out = maxV.Int
		}
	}
	a.out[0] = tuple.Row{tuple.Int64(out)}
	b.Rows = a.out[:]
	b.Sel = append(b.Sel[:0], 0)
	a.ctx.noteBatch()
	return 1, nil
}

// Close implements Operator.
func (a *AggOp) Close() error { return a.input.Close() }

// Schema implements Operator.
func (a *AggOp) Schema() *tuple.Schema { return a.schema }

// Stats implements Operator.
func (a *AggOp) Stats() *OpStats { return &a.stats }
