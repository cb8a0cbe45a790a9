package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"pagefeedback"
	"pagefeedback/internal/catalog"
	"pagefeedback/internal/core"
	"pagefeedback/internal/expr"
	"pagefeedback/internal/sql"
	"pagefeedback/internal/storage"
	"pagefeedback/internal/tuple"
)

// probeSet names a workload's own data and queries for the per-layer
// probes.
type probeSet struct {
	tables     []string             // tables the workload reads
	queries    []string             // representative queries (parse, optimize, predicates)
	template   string               // a parameterized form of the workload's query (bind)
	args       []pagefeedback.Value // its arguments
	monitorSQL string               // the query of the Fig 7 paired overhead runs
	opts       pagefeedback.RunOptions
}

// probeTime is how long each probe repeats its measured loop.
const probeTime = 60 * time.Millisecond

// probePages bounds the pages per table whose rows feed the decode,
// evaluation and monitor probes.
const probePages = 256

// sink keeps the compiler from discarding evaluations whose results a
// probe does not otherwise use.
var sink int

// repeat runs fn until probeTime has passed, at least once.
func repeat(fn func()) {
	for start := time.Now(); ; {
		fn()
		if time.Since(start) >= probeTime {
			return
		}
	}
}

// tableSample is the first probePages pages of one table: decoded rows,
// their encodings and their page ids. The raw evaluator reads fixed-width
// rows only, so rawEnc holds the rows encoded under rawSchema: the table's
// own schema when it is fixed-width, else its columns without the strings.
type tableSample struct {
	tab       *catalog.Table
	rows      []tuple.Row
	enc       [][]byte
	pids      []storage.PageID
	pages     int
	rawSchema *tuple.Schema
	rawEnc    [][]byte
}

// runProbes calls each layer's public functions on the workload's data after
// the window, with spans around the calls. Layers the workload loop already
// traced (sql.parse, sql.bind, opt.apply_feedback) are not probed again.
func runProbes(eng *pagefeedback.Engine, ps probeSet, seed int64, tr *tracer) (monitorOverheadPct float64, err error) {
	loopParsed := tr.has("sql.parse")
	preds := map[string][]expr.Conjunction{}
	for _, src := range ps.queries {
		q, err := eng.ParseQuery(src)
		if err != nil {
			return 0, err
		}
		if !loopParsed {
			if err := timeCalls(tr, "sql.parse", func() error { _, err := eng.ParseQuery(src); return err }); err != nil {
				return 0, err
			}
		}
		if err := timeCalls(tr, "opt.optimize", func() error { _, err := eng.PlanQuery(q); return err }); err != nil {
			return 0, err
		}
		for tab, p := range map[string]expr.Conjunction{q.Table: q.Pred, q.Table2: q.Pred2} {
			if tab != "" && !p.Empty() {
				preds[tab] = append(preds[tab], p)
			}
		}
	}
	if !tr.has("sql.bind") {
		tmpl, err := sql.ParseTemplate(eng.Catalog(), ps.template)
		if err != nil {
			return 0, err
		}
		if err := timeCalls(tr, "sql.bind", func() error { _, err := tmpl.Bind(ps.args); return err }); err != nil {
			return 0, err
		}
	}
	for _, name := range ps.tables {
		tab, ok := eng.Catalog().Table(name)
		if !ok {
			return 0, fmt.Errorf("probe: no table %s", name)
		}
		s, err := sampleTable(tab, tr)
		if err != nil {
			return 0, err
		}
		if err := s.probeDecode(tr); err != nil {
			return 0, err
		}
		for _, p := range preds[name] {
			if err := s.probePredicate(p, tr); err != nil {
				return 0, err
			}
		}
	}

	if monitorOverheadPct, err = probeMonitorOverhead(eng, ps); err != nil {
		return 0, err
	}
	if err := probeSeekFetch(eng, seed, tr); err != nil {
		return 0, err
	}
	if err := probeFetch(eng, ps.tables, tr); err != nil {
		return 0, err
	}
	if !tr.has("opt.apply_feedback") {
		opts := ps.opts
		opts.MonitorAll, opts.SampleFraction = true, 0.01
		res, err := eng.Query(ps.monitorSQL, &opts)
		if err != nil {
			return 0, err
		}
		if err := timeCalls(tr, "opt.apply_feedback", func() error { eng.ApplyFeedback(res); return nil }); err != nil {
			return 0, err
		}
	}
	return monitorOverheadPct, nil
}

// timeCalls calls fn repeatedly for probeTime, each call under a span
// named name, and stops at the first error.
func timeCalls(tr *tracer, name string, fn func() error) error {
	var err error
	repeat(func() {
		if err == nil {
			tr.begin(name)
			err = fn()
			tr.end(1)
		}
	})
	return err
}

// sampleTable scans the whole table page at a time (the timed
// catalog.RowIter.NextPage span, after one untimed warming scan) and keeps
// the first probePages pages.
func sampleTable(tab *catalog.Table, tr *tracer) (*tableSample, error) {
	s := &tableSample{tab: tab, rawSchema: tab.Schema}
	var rawCols []int
	if tab.Schema.FixedSize() < 0 {
		var names []string
		for i, c := range tab.Schema.Columns() {
			if c.Kind != tuple.KindString {
				names = append(names, c.Name)
				rawCols = append(rawCols, i)
			}
		}
		var err error
		if s.rawSchema, err = tab.Schema.Project(names...); err != nil {
			return nil, err
		}
	}
	for pass := 0; pass < 3; pass++ {
		it, err := tab.ScanAll()
		if err != nil {
			return nil, err
		}
		var b catalog.RowBatch
		pages := int64(0)
		if pass > 0 {
			tr.begin("catalog.RowIter.NextPage")
		}
		for it.NextPage(&b) {
			pages++
			if pass == 0 && s.pages < probePages {
				s.pages++
				for _, r := range b.Rows {
					row := r.Clone()
					enc, err := tuple.Encode(nil, tab.Schema, row)
					if err != nil {
						it.Close()
						return nil, err
					}
					raw := enc
					if rawCols != nil {
						proj := make(tuple.Row, len(rawCols))
						for j, c := range rawCols {
							proj[j] = row[c]
						}
						if raw, err = tuple.Encode(nil, s.rawSchema, proj); err != nil {
							it.Close()
							return nil, err
						}
					}
					s.rows = append(s.rows, row)
					s.enc = append(s.enc, enc)
					s.rawEnc = append(s.rawEnc, raw)
					s.pids = append(s.pids, b.PID)
				}
			}
		}
		if pass > 0 {
			tr.end(pages)
		}
		err = it.Err()
		it.Close()
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *tableSample) probeDecode(tr *tracer) error {
	var buf []tuple.Value
	var err error
	repeat(func() {
		tr.begin("tuple.DecodeAppend")
		for _, enc := range s.enc {
			if buf, err = tuple.DecodeAppend(buf[:0], s.tab.Schema, enc); err != nil {
				break
			}
		}
		tr.end(int64(len(s.enc)))
	})
	return err
}

// probePredicate evaluates one of the workload's predicates over the sample
// with each evaluator and drives each DPC monitor over the same rows.
func (s *tableSample) probePredicate(p expr.Conjunction, tr *tracer) error {
	p = unqualify(p, s.tab.Name)
	bound, err := p.Bind(s.tab.Schema)
	if err != nil {
		return err
	}
	comp := expr.Compile(bound)
	if !comp.OK() {
		return fmt.Errorf("probe: predicate %s does not compile", p)
	}
	sel := make([]int, 0, 1024)
	sat := make([]bool, len(s.rows))
	for i, r := range s.rows {
		sat[i] = comp.Eval(r)
	}
	repeat(func() {
		tr.begin("expr.Compiled.EvalBatch")
		for lo := 0; lo < len(s.rows); lo += 1024 {
			hi := min(lo+1024, len(s.rows))
			sel = sel[:0]
			for i := 0; i < hi-lo; i++ {
				sel = append(sel, i)
			}
			sel = comp.EvalBatch(s.rows[lo:hi], sel)
		}
		tr.end(int64(len(s.rows)))
	})
	rawBound, err := p.Bind(s.rawSchema)
	if err != nil {
		return err
	}
	raw := expr.CompileRaw(rawBound, s.rawSchema)
	if !raw.OK() {
		return fmt.Errorf("probe: predicate %s does not compile to the raw evaluator", p)
	}
	repeat(func() {
		tr.begin("expr.RawCompiled.Eval")
		for _, enc := range s.rawEnc {
			if raw.Eval(enc) {
				sink++
			}
		}
		tr.end(int64(len(s.rawEnc)))
	})

	pages := int64(s.pages)
	ord := bound.Atoms[0].Ordinal()
	repeat(func() {
		tr.begin("core.GroupedCounter.Observe")
		gc := core.NewGroupedCounter()
		for i, pid := range s.pids {
			gc.Observe(pid, sat[i])
		}
		gc.Finish()
		tr.end(pages)
	})
	repeat(func() {
		tr.begin("core.DPSample.Observe")
		ds := core.NewDPSample(0.01, 1)
		for i, pid := range s.pids {
			if ds.StartRow(pid) {
				ds.Observe(sat[i])
			}
		}
		ds.Finish()
		tr.end(pages)
	})
	repeat(func() {
		tr.begin("core.LinearCounter.AddPID")
		lc := core.NewLinearCounter(core.DefaultLinearCounterBits(pages))
		for i, pid := range s.pids {
			if sat[i] {
				lc.AddPID(pid)
			}
		}
		tr.end(pages)
	})
	repeat(func() {
		tr.begin("core.BitVectorFilter")
		bv := core.NewBitVectorFilter(uint64(len(s.rows)) * 8)
		for i, r := range s.rows {
			if sat[i] {
				bv.Add(r[ord])
			}
		}
		for _, r := range s.rows {
			if bv.MayContain(r[ord]) {
				sink++
			}
		}
		tr.end(pages)
	})
	return nil
}

// unqualify drops a "table." prefix from the predicate's column names.
func unqualify(p expr.Conjunction, table string) expr.Conjunction {
	out := expr.Conjunction{Atoms: append([]expr.Atom(nil), p.Atoms...)}
	for i := range out.Atoms {
		out.Atoms[i].Col = strings.TrimPrefix(out.Atoms[i].Col, table+".")
	}
	return out
}

// probeMonitorOverhead is Fig 7's measurement: paired warm runs of one
// query, unmonitored and with every monitor at 1% sampling, alternating;
// the overhead is the ratio of the two medians of Result.WallTime.
func probeMonitorOverhead(eng *pagefeedback.Engine, ps probeSet) (float64, error) {
	base := ps.opts
	mon := ps.opts
	mon.MonitorAll, mon.SampleFraction = true, 0.01
	var b, m []time.Duration
	for start := time.Now(); len(b) < 5 || time.Since(start) < 25*probeTime; {
		rb, err := eng.Query(ps.monitorSQL, &base)
		if err != nil {
			return 0, err
		}
		rm, err := eng.Query(ps.monitorSQL, &mon)
		if err != nil {
			return 0, err
		}
		b, m = append(b, rb.WallTime), append(m, rm.WallTime)
	}
	return 100 * (percentile(m, 0.5)/percentile(b, 0.5) - 1), nil
}

// probeSeekFetch is the secondary-index path of a point range: SeekRange on
// ix_t_c5 over ten keys, then FetchRowInto for each entry.
func probeSeekFetch(eng *pagefeedback.Engine, seed int64, tr *tracer) error {
	tab, _ := eng.Catalog().Table("t")
	ix, ok := tab.IndexByName("ix_t_c5")
	if !ok {
		return fmt.Errorf("probe: no index ix_t_c5")
	}
	rng := rand.New(rand.NewSource(seed))
	var ranges []expr.KeyRange
	for i := 0; i < 512; i++ {
		lo := rng.Int63n(rows - 10)
		r, _, ok := expr.IndexRanges(expr.And(expr.NewBetween("c5", tuple.Int64(lo), tuple.Int64(lo+9))), ix.Cols)
		if !ok || len(r) != 1 {
			return fmt.Errorf("probe: no index range for c5")
		}
		ranges = append(ranges, r[0])
	}
	var row tuple.Row
	i := 0
	return timeCalls(tr, "catalog.SeekRange+FetchRowInto", func() error {
		i++
		return seekFetch(ix, tab, ranges[i%len(ranges)], &row)
	})
}

func seekFetch(ix *catalog.Index, tab *catalog.Table, r expr.KeyRange, row *tuple.Row) error {
	it, err := ix.SeekRange(r)
	if err != nil {
		return err
	}
	defer it.Close()
	n := 0
	for it.Next() {
		if *row, err = tab.FetchRowInto(*row, it.RID()); err != nil {
			return err
		}
		n++
	}
	if it.Err() == nil && n != 10 {
		return fmt.Errorf("probe: seek found %d rows, want 10", n)
	}
	return it.Err()
}

// probeFetch pins and unpins pages of the workload's tables: first pages
// made non-resident by a pool reset (misses), then a small set that stays
// resident (hits).
func probeFetch(eng *pagefeedback.Engine, tables []string, tr *tracer) error {
	pool := eng.Pool()
	type page struct {
		file storage.FileID
		pid  storage.PageID
	}
	var pages []page
	for _, name := range tables {
		tab, _ := eng.Catalog().Table(name)
		parts, err := tab.ScanPartitions(1)
		if err != nil {
			return err
		}
		for _, p := range parts {
			for _, pid := range p.Pages {
				pages = append(pages, page{p.File, pid})
			}
			p.Iter.Close()
		}
	}
	fetch := func(name string, ps []page) error {
		tr.begin(name)
		defer tr.end(int64(len(ps)))
		for _, p := range ps {
			if err := pin(pool, p.file, p.pid); err != nil {
				return err
			}
		}
		return nil
	}
	// A quarter of the pool's capacity keeps every miss from evicting a
	// page the same round fetches.
	miss := pages[:min(len(pages), pool.Capacity()/4)]
	for round := 0; round < 8; round++ {
		if err := pool.Reset(); err != nil {
			return err
		}
		if err := fetch("storage.FetchPage.miss", miss); err != nil {
			return err
		}
	}
	hot := miss[:min(len(miss), 32)]
	var err error
	repeat(func() {
		for i := 0; i < 100 && err == nil; i++ {
			err = fetch("storage.FetchPage.hit", hot)
		}
	})
	return err
}

// pin fetches one page and releases it.
func pin(pool *storage.BufferPool, file storage.FileID, pid storage.PageID) error {
	pp, err := pool.FetchPage(file, pid)
	if err != nil {
		return err
	}
	defer pp.Unpin(false)
	return nil
}
