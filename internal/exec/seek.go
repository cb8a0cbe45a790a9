package exec

import (
	"fmt"
	"sort"
	"time"

	"pagefeedback/internal/catalog"
	"pagefeedback/internal/core"
	"pagefeedback/internal/expr"
	"pagefeedback/internal/storage"
	"pagefeedback/internal/tuple"
)

// seekMonitor counts distinct fetched pages with probabilistic counting
// (§III-A): in an index plan rows arrive in key order, so the same page can
// recur arbitrarily and exact counting would need duplicate elimination.
type seekMonitor struct {
	req  DPCRequest
	lc   *core.LinearCounter
	sd   *core.SampleDistinct // optional comparison estimator
	rows int64
	mech string
	// host is the attached operator's stats node; see scanMonitor.host.
	host *OpStats

	// quarantine state; see scanMonitor.
	disabled   bool
	failure    string
	injectFail bool

	// shed state; see scanMonitor. Seek monitors already sit at the linear
	// counting rung, so plant-time shedding only thins their bitmap; the
	// overhead budget can still disable them mid-query.
	shed           bool
	shedReason     string
	overheadBudget time.Duration
	obsTime        time.Duration
}

func (m *seekMonitor) observe(pid storage.PageID) {
	if m.disabled {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			m.disabled = true
			m.failure = fmt.Sprint(r)
		}
	}()
	if m.injectFail {
		panic("exec: injected monitor fault (" + m.mech + ")")
	}
	var start time.Time
	if m.overheadBudget > 0 {
		start = time.Now()
	}
	m.rows++
	m.lc.AddPID(pid)
	if m.sd != nil {
		m.sd.AddPID(pid)
	}
	if m.overheadBudget > 0 {
		m.obsTime += time.Since(start)
		if m.obsTime > m.overheadBudget {
			m.disabled = true
			m.shed = true
			m.shedReason = fmt.Sprintf("load-shed: observation overhead %v exceeded budget %v",
				m.obsTime, m.overheadBudget)
		}
	}
}

func (m *seekMonitor) hostID() int32 {
	if m.host == nil {
		return -1
	}
	return m.host.OpID
}

func (m *seekMonitor) result() DPCResult {
	if m.disabled {
		r := DPCResult{
			Request: m.req, Mechanism: m.mech, OpID: m.hostID(),
			Degraded: true, Shed: m.shed,
			Reason: "monitor quarantined: " + m.failure,
		}
		if m.shed {
			r.Reason = m.shedReason
		}
		return r
	}
	r := DPCResult{
		Request: m.req, Mechanism: m.mech, OpID: m.hostID(),
		DPC: m.lc.EstimateInt(), Cardinality: m.rows,
	}
	if m.sd != nil {
		r.SamplingEstimate = m.sd.EstimateInt()
	}
	if m.shed {
		r.Degraded = true
		r.Shed = true
		r.Reason = m.shedReason
	}
	return r
}

// IndexSeek is the Index Seek + Fetch access method: look up the index over
// the plan's key ranges, fetch each qualifying row from the table, apply the
// full predicate, and emit survivors. Fetches are where table PIDs surface.
type IndexSeek struct {
	ctx      *Context
	tab      *catalog.Table
	ix       *catalog.Index
	ranges   []expr.KeyRange
	cc       expr.Compiled // the full predicate, compiled
	monitors []*seekMonitor
	stats    OpStats

	rangeIdx int
	it       *catalog.EntryIter
	out      rowArena // the batch being built; fetches decode straight into it
}

// NewIndexSeek builds the operator. pred must be bound to tab.Schema.
func NewIndexSeek(ctx *Context, tab *catalog.Table, ix *catalog.Index, ranges []expr.KeyRange, pred expr.Conjunction) *IndexSeek {
	return &IndexSeek{
		ctx: ctx, tab: tab, ix: ix, ranges: ranges, cc: compilePred(ctx, pred),
		stats: OpStats{Label: "IndexSeek(" + tab.Name + "." + ix.Name + ")"},
	}
}

// attach adds a monitor (builder only).
func (s *IndexSeek) attach(m *seekMonitor) { s.monitors = append(s.monitors, m) }

// Open implements Operator.
func (s *IndexSeek) Open() error {
	s.rangeIdx = 0
	return s.openRange()
}

func (s *IndexSeek) openRange() error {
	if s.rangeIdx >= len(s.ranges) {
		s.it = nil
		return nil
	}
	it, err := s.ix.SeekRange(s.ranges[s.rangeIdx])
	if err != nil {
		return err
	}
	s.it = it
	return nil
}

// NextBatch implements Operator: satisfying fetches accumulate until the
// batch holds BatchSize rows, or Batch.Max when the consumer advances row by
// row. Per entry: poll, charge CPU, fetch, evaluate, and on satisfaction let
// the monitors observe the fetched page. Need is ignored: a full batch of
// fetches is the seek's unit of work, under a LIMIT too.
func (s *IndexSeek) NextBatch(b *Batch) (int, error) {
	limit := BatchSize
	if b.Max > 0 && b.Max < limit {
		limit = b.Max
	}
	s.out.vals = s.out.vals[:0]
	s.out.bounds = s.out.bounds[:0]
	for s.it != nil && s.out.n() < limit {
		if !s.it.Next() {
			if err := s.it.Err(); err != nil {
				return 0, err
			}
			s.it.Close()
			s.rangeIdx++
			if err := s.openRange(); err != nil {
				return 0, err
			}
			continue
		}
		if err := s.ctx.interrupted(); err != nil {
			return 0, err
		}
		s.ctx.touch(1)
		rid := s.it.RID()
		ok, err := s.out.fetch(s.tab, rid, s.cc, len(s.out.vals))
		if err != nil {
			return 0, err
		}
		if ok {
			for _, m := range s.monitors {
				m.observe(rid.Page)
			}
		}
	}
	n := s.out.emit(b)
	if n > 0 {
		s.stats.ActRows += int64(n)
		s.ctx.noteBatch()
	}
	return n, nil
}

// Close implements Operator.
func (s *IndexSeek) Close() error {
	if s.it != nil {
		s.it.Close()
		s.it = nil
	}
	return nil
}

// Schema implements Operator.
func (s *IndexSeek) Schema() *tuple.Schema { return s.tab.Schema }

// Stats implements Operator.
func (s *IndexSeek) Stats() *OpStats { return &s.stats }

// IndexIntersect is the Index Intersection access method: collect the RID
// sets from two index lookups, intersect them, fetch the surviving rows in
// RID order, and apply the full predicate.
type IndexIntersect struct {
	ctx      *Context
	tab      *catalog.Table
	ixA, ixB *catalog.Index
	rngA     []expr.KeyRange
	rngB     []expr.KeyRange
	cc       expr.Compiled // the full predicate, compiled
	monitors []*seekMonitor
	stats    OpStats

	rids []storage.RID
	pos  int
	out  rowArena // the batch being built; fetches decode straight into it
}

// NewIndexIntersect builds the operator.
func NewIndexIntersect(ctx *Context, tab *catalog.Table, ixA *catalog.Index, rngA []expr.KeyRange,
	ixB *catalog.Index, rngB []expr.KeyRange, pred expr.Conjunction) *IndexIntersect {
	return &IndexIntersect{
		ctx: ctx, tab: tab, ixA: ixA, ixB: ixB, rngA: rngA, rngB: rngB,
		cc:    compilePred(ctx, pred),
		stats: OpStats{Label: "IndexIntersect(" + tab.Name + ")"},
	}
}

// attach adds a monitor (builder only).
func (s *IndexIntersect) attach(m *seekMonitor) { s.monitors = append(s.monitors, m) }

func (s *IndexIntersect) collect(ix *catalog.Index, ranges []expr.KeyRange) (map[int64]struct{}, error) {
	set := make(map[int64]struct{})
	for _, r := range ranges {
		it, err := ix.SeekRange(r)
		if err != nil {
			return nil, err
		}
		var lastLeaf storage.PageID
		started := false
		for it.Next() {
			// Poll cancellation once per index leaf, not per entry.
			if leaf := it.LeafPage(); !started || leaf != lastLeaf {
				if err := s.ctx.interrupted(); err != nil {
					it.Close()
					return nil, err
				}
				started = true
				lastLeaf = leaf
			}
			s.ctx.touch(1)
			if err := s.ctx.Mem.Grow(8 + mapEntryOverhead); err != nil {
				it.Close()
				return nil, err
			}
			set[it.RID().AsInt64()] = struct{}{}
		}
		err = it.Err()
		it.Close()
		if err != nil {
			return nil, err
		}
	}
	return set, nil
}

// Open implements Operator: performs both index lookups and intersects.
func (s *IndexIntersect) Open() error {
	setA, err := s.collect(s.ixA, s.rngA)
	if err != nil {
		return err
	}
	setB, err := s.collect(s.ixB, s.rngB)
	if err != nil {
		return err
	}
	s.rids = s.rids[:0]
	for rid := range setA {
		if _, ok := setB[rid]; ok {
			s.rids = append(s.rids, storage.RIDFromInt64(rid))
		}
	}
	// Fetch in RID order: real engines sort the intersected RID list to
	// turn the fetch into a forward pass over the table.
	sort.Slice(s.rids, func(i, j int) bool {
		a, b := s.rids[i], s.rids[j]
		if a.Page != b.Page {
			return a.Page < b.Page
		}
		return a.Slot < b.Slot
	})
	s.pos = 0
	return nil
}

// NextBatch implements Operator: the intersected RIDs are fetched in order
// and the satisfying rows accumulate until the batch holds Batch.rowCap rows.
func (s *IndexIntersect) NextBatch(b *Batch) (int, error) {
	limit := b.rowCap()
	s.out.vals = s.out.vals[:0]
	s.out.bounds = s.out.bounds[:0]
	for s.pos < len(s.rids) && s.out.n() < limit {
		if err := s.ctx.interrupted(); err != nil {
			return 0, err
		}
		rid := s.rids[s.pos]
		s.pos++
		s.ctx.touch(1)
		ok, err := s.out.fetch(s.tab, rid, s.cc, len(s.out.vals))
		if err != nil {
			return 0, err
		}
		if ok {
			for _, m := range s.monitors {
				m.observe(rid.Page)
			}
		}
	}
	n := s.out.emit(b)
	if n > 0 {
		s.stats.ActRows += int64(n)
		s.ctx.noteBatch()
	}
	return n, nil
}

// Close implements Operator.
func (s *IndexIntersect) Close() error { return nil }

// Schema implements Operator.
func (s *IndexIntersect) Schema() *tuple.Schema { return s.tab.Schema }

// Stats implements Operator.
func (s *IndexIntersect) Stats() *OpStats { return &s.stats }
