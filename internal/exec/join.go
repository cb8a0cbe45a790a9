package exec

import (
	"fmt"

	"pagefeedback/internal/catalog"
	"pagefeedback/internal/expr"
	"pagefeedback/internal/storage"
	"pagefeedback/internal/tuple"
)

// HashJoinOp joins build (outer) and probe (inner) on equality of one column
// each. It runs in the relational engine: it never sees page ids. When a
// bit-vector filter is wired in, the build phase fills it (Fig 5), so that
// by the time the probe side's SE scan streams rows, the filter acts as the
// derived semi-join predicate for DPC monitoring.
type HashJoinOp struct {
	ctx      *Context
	build    Operator
	probe    Operator
	buildOrd int
	probeOrd int
	schema   *tuple.Schema
	filter   *filterSink // optional; filled during build
	stats    OpStats

	table map[string][]tuple.Row

	// Build and probe state: the encoded key of the current row, the
	// pulled probe batch, and the joined output. All are transient
	// high-water-reuse buffers bounded by one batch — rebuilt from length
	// zero every NextBatch — so none are charged to the memory budget.
	key []byte
	pb  Batch
	out rowArena

	// parProbe is set when the probe input is a parallel scan: after the
	// build phase the probe is pushed down into the scan workers, which
	// look up the completed (read-only) hash table and emit joined rows.
	parProbe *ParallelScan
}

// NewHashJoin constructs the operator. buildOrd/probeOrd are the join column
// ordinals in the respective input schemas.
func NewHashJoin(ctx *Context, build, probe Operator, buildOrd, probeOrd int, schema *tuple.Schema) *HashJoinOp {
	return &HashJoinOp{
		ctx: ctx, build: build, probe: probe,
		buildOrd: buildOrd, probeOrd: probeOrd, schema: schema,
		stats: OpStats{Label: "HashJoin"},
	}
}

// SetFilter wires a bit-vector filter to fill during the build phase.
func (j *HashJoinOp) SetFilter(f *filterSink) { j.filter = f }

// SetParallelProbe marks the probe input as a parallel scan to push the probe
// phase into (builder only). The push-down happens in Open, after the build
// phase: the hash table is complete and read-only by the time any worker
// probes it, so no synchronization is needed beyond the scan's own barrier.
func (j *HashJoinOp) SetParallelProbe(ps *ParallelScan) { j.parProbe = ps }

// Open implements Operator: drains the build input into the hash table.
// The build input is always closed before Open returns — even on error —
// so no page pins outlive the operator.
func (j *HashJoinOp) Open() error {
	if err := j.build.Open(); err != nil {
		return err
	}
	j.table = make(map[string][]tuple.Row)
	var b Batch
	for {
		n, err := j.build.NextBatch(&b)
		if err != nil {
			j.build.Close() // release any pins held mid-batch (e.g. decode errors)
			return err
		}
		if n == 0 {
			break
		}
		j.ctx.touch(int64(n))
		for _, i := range b.Sel {
			row := b.Rows[i]
			v := row[j.buildOrd]
			if err := j.ctx.Mem.Grow(rowMemSize(row) + mapEntryOverhead); err != nil {
				j.build.Close()
				return err
			}
			// The lookup reads the key buffer in place; only the map
			// write copies it into a string.
			j.key = tuple.AppendKey(j.key[:0], v)
			j.table[string(j.key)] = append(j.table[string(j.key)], row.Clone())
			if j.filter != nil {
				j.filter.Add(v)
			}
		}
	}
	if err := j.build.Close(); err != nil {
		return err
	}
	if j.parProbe != nil {
		// Partitioned probe: each scan worker looks up the now-immutable
		// hash table through its own key buffer and appends the joined rows
		// straight to its output arena. Per-row CPU is charged on the
		// worker's context, mirroring the serial probe loop.
		j.parProbe.SetProbe(func(wctx *Context, row tuple.Row, key []byte) ([]tuple.Row, []byte) {
			wctx.touch(1)
			key = tuple.AppendKey(key[:0], row[j.probeOrd])
			return j.table[string(key)], key
		})
	}
	return j.probe.Open()
}

// NextBatch implements Operator for the probe phase. With a partitioned
// probe the exchange's arena-backed batches are forwarded whole — already
// joined by the workers. Serially, each probe row's key is encoded into the
// reused key buffer and looked up, and the matches are copied into the
// output arena. Under a LIMIT the probe input is asked for one row per pull
// (Need = 1), so operators that build their batch row by row read no
// further than the limit requires; scans deliver their page regardless.
func (j *HashJoinOp) NextBatch(b *Batch) (int, error) {
	if j.parProbe != nil {
		n, err := j.probe.NextBatch(b)
		j.stats.ActRows += int64(n)
		return n, err
	}
	j.pb.Need = 0
	if b.Need > 0 {
		j.pb.Need = 1
	}
	for {
		n, err := j.probe.NextBatch(&j.pb)
		if err != nil || n == 0 {
			return 0, err
		}
		j.ctx.touch(int64(n))
		j.out.vals = j.out.vals[:0]
		j.out.bounds = j.out.bounds[:0]
		for _, i := range j.pb.Sel {
			row := j.pb.Rows[i]
			j.key = tuple.AppendKey(j.key[:0], row[j.probeOrd])
			for _, build := range j.table[string(j.key)] {
				j.out.vals = append(j.out.vals, build...)
				j.out.vals = append(j.out.vals, row...)
				j.out.endRow()
			}
		}
		if j.out.n() == 0 {
			continue
		}
		n = j.out.emit(b)
		j.stats.ActRows += int64(n)
		j.ctx.noteBatch()
		return n, nil
	}
}

// Close implements Operator.
func (j *HashJoinOp) Close() error { return j.probe.Close() }

// Schema implements Operator.
func (j *HashJoinOp) Schema() *tuple.Schema { return j.schema }

// Stats implements Operator.
func (j *HashJoinOp) Stats() *OpStats { return &j.stats }

// MergeJoinOp joins two inputs already ordered by their join columns. If a
// bit-vector filter is wired in, every consumed outer value is added to it
// as the merge advances — the partial bit-vector filter of §IV — and each
// match is reported to the inner scan through the RE→SE late-match callback
// so the boundary lookahead row is counted correctly.
type MergeJoinOp struct {
	ctx      *Context
	outer    Operator
	inner    Operator
	outerOrd int
	innerOrd int
	schema   *tuple.Schema
	filter   *filterSink
	innerSE  *SEScan // non-nil when the inner input is directly an SE scan
	stats    OpStats

	outerIn   rowCursor
	innerIn   rowCursor
	outerRow  tuple.Row
	innerRow  tuple.Row
	innerRID  storage.RID
	outerDone bool
	innerDone bool

	// Cross-product state for duplicate join values.
	outGroup   []tuple.Row
	inGroup    []tuple.Row
	outCharged int // group-buffer rows already charged to the memory tracker
	inCharged  int
	gi, gj     int
	emitting   bool

	out rowArena // the batch being built
}

// NewMergeJoin constructs the operator; inputs must be sorted ascending on
// their join columns.
func NewMergeJoin(ctx *Context, outer, inner Operator, outerOrd, innerOrd int, schema *tuple.Schema) *MergeJoinOp {
	return &MergeJoinOp{
		ctx: ctx, outer: outer, inner: inner,
		outerOrd: outerOrd, innerOrd: innerOrd, schema: schema,
		outerIn: rowCursor{in: outer}, innerIn: rowCursor{in: inner},
		stats: OpStats{Label: "MergeJoin"},
	}
}

// SetFilter wires a partial bit-vector filter filled as outer rows are
// consumed. innerSE (may be nil) receives late-match callbacks.
func (j *MergeJoinOp) SetFilter(f *filterSink, innerSE *SEScan) {
	j.filter = f
	j.innerSE = innerSE
}

// Open implements Operator.
func (j *MergeJoinOp) Open() error {
	if err := j.outer.Open(); err != nil {
		return err
	}
	if err := j.inner.Open(); err != nil {
		return err
	}
	j.outerIn.reset()
	j.innerIn.reset()
	if err := j.advanceOuter(); err != nil {
		return err
	}
	return j.advanceInner()
}

func (j *MergeJoinOp) advanceOuter() error {
	row, ok, err := j.outerIn.next()
	if err != nil {
		return err
	}
	if !ok {
		j.outerDone = true
		return nil
	}
	j.ctx.touch(1)
	j.outerRow = row.Clone()
	if j.filter != nil {
		j.filter.Add(row[j.outerOrd])
	}
	return nil
}

func (j *MergeJoinOp) advanceInner() error {
	row, ok, err := j.innerIn.next()
	if err != nil {
		return err
	}
	if !ok {
		j.innerDone = true
		return nil
	}
	j.ctx.touch(1)
	j.innerRow = row.Clone()
	if j.innerSE != nil {
		j.innerRID = j.innerSE.lastRID
	}
	return nil
}

// NextBatch implements Operator: the merge advances its inputs one row at
// a time and emits joined rows until the batch holds Batch.rowCap of them,
// so under a LIMIT it reads no further than the limit requires.
func (j *MergeJoinOp) NextBatch(b *Batch) (int, error) {
	limit := b.rowCap()
	j.out.vals = j.out.vals[:0]
	j.out.bounds = j.out.bounds[:0]
	for j.out.n() < limit {
		if j.emitting {
			if j.gi < len(j.outGroup) {
				j.out.vals = append(j.out.vals, j.outGroup[j.gi]...)
				j.out.vals = append(j.out.vals, j.inGroup[j.gj]...)
				j.out.endRow()
				j.gj++
				if j.gj == len(j.inGroup) {
					j.gj = 0
					j.gi++
				}
				continue
			}
			j.emitting = false
		}
		if j.outerDone || j.innerDone {
			break
		}
		var err error
		switch cmp := j.outerRow[j.outerOrd].Compare(j.innerRow[j.innerOrd]); {
		case cmp < 0:
			err = j.advanceOuter()
		case cmp > 0:
			err = j.advanceInner()
		default:
			err = j.collectGroups()
		}
		if err != nil {
			return 0, err
		}
	}
	n := j.out.emit(b)
	if n > 0 {
		j.stats.ActRows += int64(n)
		j.ctx.noteBatch()
	}
	return n, nil
}

// collectGroups gathers all outer and inner rows sharing the current join
// value and arms the cross-product emitter.
func (j *MergeJoinOp) collectGroups() error {
	v := j.outerRow[j.outerOrd]
	// The inner lookahead row matched: report it late (it streamed through
	// the scan before v necessarily entered the partial filter).
	j.notifyMatch()
	j.outGroup = j.outGroup[:0]
	j.inGroup = j.inGroup[:0]
	for !j.outerDone && j.outerRow[j.outerOrd].Compare(v) == 0 {
		if err := j.chargeGroupRow(len(j.outGroup), &j.outCharged, j.outerRow); err != nil {
			return err
		}
		j.outGroup = append(j.outGroup, j.outerRow)
		if err := j.advanceOuter(); err != nil {
			return err
		}
	}
	for !j.innerDone && j.innerRow[j.innerOrd].Compare(v) == 0 {
		if err := j.chargeGroupRow(len(j.inGroup), &j.inCharged, j.innerRow); err != nil {
			return err
		}
		j.inGroup = append(j.inGroup, j.innerRow)
		if err := j.advanceInner(); err != nil {
			return err
		}
	}
	j.gi, j.gj = 0, 0
	j.emitting = len(j.outGroup) > 0 && len(j.inGroup) > 0
	return nil
}

// chargeGroupRow charges the memory tracker when a group buffer grows past
// its previously charged capacity. The buffers are reset (s[:0]) for every
// duplicate join value, so charging each append would bill the sum of all
// group sizes; the budgetable quantity is the largest group's footprint.
func (j *MergeJoinOp) chargeGroupRow(cur int, charged *int, row tuple.Row) error {
	if cur < *charged {
		return nil
	}
	if err := j.ctx.Mem.Grow(rowMemSize(row)); err != nil {
		return err
	}
	*charged = cur + 1
	return nil
}

func (j *MergeJoinOp) notifyMatch() {
	if j.innerSE != nil {
		j.innerSE.lateMatch(j.innerRID)
	}
}

// Close implements Operator.
func (j *MergeJoinOp) Close() error {
	err1 := j.outer.Close()
	err2 := j.inner.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// Schema implements Operator.
func (j *MergeJoinOp) Schema() *tuple.Schema { return j.schema }

// Stats implements Operator.
func (j *MergeJoinOp) Stats() *OpStats { return &j.stats }

// INLJoinOp is the Index Nested Loops join: for each outer row it seeks the
// inner table's index on the join column and fetches the matching rows. The
// residual selection on the inner table is applied after the join, per §IV.
// Each fetched page is a logical I/O; on a cold cache, a physical random
// read — which is why DPC(inner, join-pred) dominates this operator's cost.
type INLJoinOp struct {
	ctx      *Context
	outer    Operator
	outerOrd int
	innerTab *catalog.Table
	innerIx  *catalog.Index
	innerCC  expr.Compiled // the residual on the inner table, compiled
	schema   *tuple.Schema
	monitors []*seekMonitor
	stats    OpStats

	outerIn  rowCursor
	outerRow tuple.Row // valid until the next outer pull
	it       *catalog.EntryIter
	out      rowArena // the batch being built
}

// NewINLJoin constructs the operator.
func NewINLJoin(ctx *Context, outer Operator, outerOrd int, innerTab *catalog.Table,
	innerIx *catalog.Index, innerPred expr.Conjunction, schema *tuple.Schema) *INLJoinOp {
	return &INLJoinOp{
		ctx: ctx, outer: outer, outerOrd: outerOrd,
		innerTab: innerTab, innerIx: innerIx,
		innerCC: compilePred(ctx, innerPred), schema: schema,
		outerIn: rowCursor{in: outer},
		stats:   OpStats{Label: "INLJoin(" + innerTab.Name + "." + innerIx.Name + ")"},
	}
}

// attach adds a monitor (builder only).
func (j *INLJoinOp) attach(m *seekMonitor) { j.monitors = append(j.monitors, m) }

// Open implements Operator.
func (j *INLJoinOp) Open() error {
	j.outerIn.reset()
	return j.outer.Open()
}

// NextBatch implements Operator: outer rows are taken one at a time, and
// each one's index matches are fetched before the next is pulled, so outer
// and inner page reads interleave row by row — the read order the I/O
// model's sequential/random decision and read-position fault schedules
// depend on. Joined rows that pass the residual accumulate until the batch
// holds Batch.rowCap of them.
func (j *INLJoinOp) NextBatch(b *Batch) (int, error) {
	limit := b.rowCap()
	j.out.vals = j.out.vals[:0]
	j.out.bounds = j.out.bounds[:0]
	for j.out.n() < limit {
		if j.it != nil {
			if j.it.Next() {
				if err := j.ctx.interrupted(); err != nil {
					return 0, err
				}
				j.ctx.touch(1)
				rid := j.it.RID()
				start := len(j.out.vals)
				j.out.vals = append(j.out.vals, j.outerRow...)
				if _, err := j.out.fetch(j.innerTab, rid, j.innerCC, start); err != nil {
					return 0, err
				}
				// Every fetched row satisfies the join predicate: monitors
				// count its page toward DPC(inner, join-pred) (§IV).
				for _, m := range j.monitors {
					m.observe(rid.Page)
				}
				continue
			}
			if err := j.it.Err(); err != nil {
				return 0, err
			}
			j.it.Close()
			j.it = nil
		}
		row, ok, err := j.outerIn.next()
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		j.ctx.touch(1)
		j.outerRow = row
		v := row[j.outerOrd]
		s, sok := expr.SuccValue(v)
		if !sok {
			return 0, fmt.Errorf("exec: INL join value %v has no successor", v)
		}
		it, err := j.innerIx.SeekRange(expr.KeyRange{Lo: tuple.EncodeKey(v), Hi: tuple.EncodeKey(s)})
		if err != nil {
			return 0, err
		}
		j.it = it
	}
	n := j.out.emit(b)
	if n > 0 {
		j.stats.ActRows += int64(n)
		j.ctx.noteBatch()
	}
	return n, nil
}

// Close implements Operator.
func (j *INLJoinOp) Close() error {
	if j.it != nil {
		j.it.Close()
		j.it = nil
	}
	return j.outer.Close()
}

// Schema implements Operator.
func (j *INLJoinOp) Schema() *tuple.Schema { return j.schema }

// Stats implements Operator.
func (j *INLJoinOp) Stats() *OpStats { return &j.stats }
