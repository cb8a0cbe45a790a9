package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"pagefeedback"
	"pagefeedback/internal/sql"
)

// workload is one closed-loop traffic mix. unit runs client c's next unit of
// work and checks its result; a window ends only at a pass boundary, every
// passLen units.
type workload interface {
	unit(c *client) error
	passLen() int
	// guards runs the deterministic measurements after the window: the mean
	// simulated time per query and the mean feedback speedup (T−T′)/T in
	// percent. Both repeat exactly for a given seed.
	guards(first *client) (simMS, speedupPct float64, err error)
	probes() probeSet
}

// spec is a workload's fixed shape.
type spec struct {
	name, why string
	poolPages int
	clients   int
	withTB    bool
	build     func(eng *pagefeedback.Engine, ref *refData, seed int64) (workload, error)
}

var workloads = []spec{
	{
		name: "diagnose",
		why: "the paper's loop over the fixed Fig 6/8 list, cold cache, 1 client: each query is counted, " +
			"injected, run with MonitorAll, fed back and re-run; storage misses, monitors, re-optimization",
		poolPages: 8192, clients: 1,
		build: func(eng *pagefeedback.Engine, ref *refData, _ int64) (workload, error) {
			return newDiagnose(eng, ref), nil
		},
	},
	{
		name: "oltp",
		why: "prepared Zipf(1.1) c5 range COUNT, 2 clients, warm 512-page pool: plan-cache hits, pin/unpin, " +
			"CLOCK eviction; warm because 2 cold-cache clients fail on Reset with pinned page",
		poolPages: 512, clients: oltpClients,
		build: newOLTP,
	},
	{
		name: "analytic",
		why: "ad-hoc scans, raw and decoded filters, hash join and GROUP BY on a pool the data fits, " +
			"1 client at Parallelism 2, every 4th query monitored at 1%: exec, tuple, expr and monitors",
		poolPages: 8192, clients: 1, withTB: true,
		build: newAnalytic,
	},
}

// mismatch is a wrong query result: it counts as a failed query and fails
// the run.
type mismatch struct{ msg string }

func (m *mismatch) Error() string { return m.msg }

func checkInt(res *pagefeedback.Result, want int64, what string) error {
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 || res.Rows[0][0].Int != want {
		return &mismatch{fmt.Sprintf("%s: got %v, want %d", what, res.Rows, want)}
	}
	return nil
}

// ---- diagnose ----

// diagQuery is one entry of the fixed diagnose list.
type diagQuery struct {
	sql       string
	want      int64
	outerSQL  string // joins: counts the outer side, whose cardinality is injected
	outerWant int64
	sample    float64
}

type diagnose struct {
	eng    *pagefeedback.Engine
	list   []diagQuery
	export []byte // ExportFeedback after the first complete pass
}

// newDiagnose builds the fixed query list: the Fig 6 range predicates
// c2..c5 < v at selectivities 0.1% to 10%, then the Fig 8 joins T1 ⋈ T on
// c2..c5 with outer selectivities 0.2% to 5%.
func newDiagnose(eng *pagefeedback.Engine, ref *refData) *diagnose {
	d := &diagnose{eng: eng}
	cols := []string{"c2", "c3", "c4", "c5"}
	for _, sel := range []float64{0.001, 0.003, 0.01, 0.03, 0.1} {
		for _, c := range cols {
			v := int64(sel * rows)
			d.list = append(d.list, diagQuery{
				sql:    fmt.Sprintf("SELECT COUNT(padding) FROM t WHERE %s < %d", c, v),
				want:   ref.t.countLess(col(c), v),
				sample: 0.01,
			})
		}
	}
	for _, sel := range []float64{0.002, 0.01, 0.05} {
		for _, c := range cols {
			v := int64(sel * rows)
			d.list = append(d.list, diagQuery{
				sql:       fmt.Sprintf("SELECT COUNT(t.padding) FROM t, t1 WHERE t1.c1 < %d AND t1.%s = t.%s", v, c, c),
				want:      ref.joinCount(0, v, col(c)),
				outerSQL:  fmt.Sprintf("SELECT COUNT(*) FROM t1 WHERE c1 < %d", v),
				outerWant: ref.t1.countLess(0, v),
				sample:    1.0, // joins need the exact filter pass (Fig 8)
			})
		}
	}
	return d
}

func (d *diagnose) passLen() int { return len(d.list) }

// unit runs one §V-B cycle: clear injections and page-count histograms, run
// the count and inject the exact cardinality, run with every monitor (plan
// P, simulated time T), apply the feedback, and re-run cold (plan P′, T′).
func (d *diagnose) unit(c *client) error {
	dq := d.list[c.i%len(d.list)]
	eng := d.eng
	o := eng.Optimizer()
	o.ClearInjections()
	o.ClearDPCHistograms()
	c.tr.begin("sql.parse")
	q, err := eng.ParseQuery(dq.sql)
	c.tr.end(1)
	if err != nil {
		return err
	}
	pre, err := c.run(func() (*pagefeedback.Result, error) { return eng.RunQuery(q, c.cold) })
	if err != nil {
		return err
	}
	if err := checkInt(pre, dq.want, dq.sql); err != nil {
		return err
	}
	if dq.outerSQL == "" {
		o.InjectCardinality(q.Table, q.Pred, float64(dq.want))
	} else {
		outer, err := c.run(func() (*pagefeedback.Result, error) { return eng.Query(dq.outerSQL, c.cold) })
		if err != nil {
			return err
		}
		if err := checkInt(outer, dq.outerWant, dq.outerSQL); err != nil {
			return err
		}
		o.InjectCardinality(q.Table2, q.Pred2, float64(dq.outerWant))
	}
	mon := &pagefeedback.RunOptions{MonitorAll: true, SampleFraction: dq.sample, Trace: c.tr != nil}
	res1, err := c.run(func() (*pagefeedback.Result, error) { return eng.RunQuery(q, mon) })
	if err != nil {
		return err
	}
	if err := checkInt(res1, dq.want, dq.sql); err != nil {
		return err
	}
	c.tr.begin("opt.apply_feedback")
	eng.ApplyFeedback(res1)
	c.tr.end(1)
	res2, err := c.run(func() (*pagefeedback.Result, error) { return eng.RunQuery(q, c.cold) })
	if err != nil {
		return err
	}
	if err := checkInt(res2, dq.want, dq.sql); err != nil {
		return err
	}
	c.cycles = append(c.cycles, cycle{t: res1.SimulatedTime, t2: res2.SimulatedTime})
	if c.i%len(d.list) == len(d.list)-1 {
		return d.checkExport()
	}
	return nil
}

// checkExport compares the feedback export after each complete pass with
// the first one: the loop is deterministic, so the bytes must not change.
func (d *diagnose) checkExport() error {
	var buf bytes.Buffer
	if err := d.eng.ExportFeedback(&buf); err != nil {
		return err
	}
	if d.export == nil {
		d.export = buf.Bytes()
		return nil
	}
	if !bytes.Equal(d.export, buf.Bytes()) {
		return &mismatch{"ExportFeedback bytes differ between two passes of one seed"}
	}
	return nil
}

// guards takes the first complete pass of the window: the mean of T′ (the
// simulated time of a query once its feedback is applied) and of (T−T′)/T.
func (d *diagnose) guards(first *client) (float64, float64, error) {
	if len(first.cycles) < len(d.list) {
		return 0, 0, fmt.Errorf("diagnose: no complete pass")
	}
	sim, speedup := passMeans(first.cycles[:len(d.list)])
	return sim, speedup, nil
}

func passMeans(cs []cycle) (simMS, speedupPct float64) {
	for _, c := range cs {
		simMS += float64(c.t2) / 1e6
		if c.t > 0 {
			speedupPct += 100 * float64(c.t-c.t2) / float64(c.t)
		}
	}
	n := float64(len(cs))
	return simMS / n, speedupPct / n
}

// feedbackPass runs one diagnose pass on another workload's engine, after
// its window: the feedback speedup under that workload's pool size.
func feedbackPass(eng *pagefeedback.Engine, ref *refData) (float64, error) {
	d := newDiagnose(eng, ref)
	c := newClient(0, false)
	for c.i = 0; c.i < len(d.list); c.i++ {
		if err := d.unit(c); err != nil {
			return 0, fmt.Errorf("feedback pass: %w", err)
		}
	}
	_, speedup := passMeans(c.cycles)
	return speedup, nil
}

func (d *diagnose) probes() probeSet {
	return probeSet{
		tables:     []string{"t", "t1"},
		queries:    []string{d.list[2].sql, d.list[len(d.list)-2].sql},
		template:   "SELECT COUNT(padding) FROM t WHERE c4 < ?",
		args:       []pagefeedback.Value{pagefeedback.Int64(rows / 100)},
		monitorSQL: fmt.Sprintf("SELECT COUNT(padding) FROM t WHERE c5 < %d", rows/10),
		opts:       pagefeedback.RunOptions{WarmCache: true},
	}
}

// ---- oltp ----

const oltpClients = 2

// oltpKeys is the number of keys pre-generated per client; clients cycle
// through them.
const oltpKeys = 1 << 16

type oltpKey struct{ lo, hi, want int64 }

type oltp struct {
	eng         *pagefeedback.Engine
	ref         *refData
	stmt        *pagefeedback.Stmt
	tmpl        *sql.Template // the same statement, for spans around Bind
	keys        [][]oltpKey
	opts, topts *pagefeedback.RunOptions
}

const oltpSQL = "SELECT COUNT(padding) FROM t WHERE c5 BETWEEN ? AND ?"

func newOLTP(eng *pagefeedback.Engine, ref *refData, seed int64) (workload, error) {
	stmt, err := eng.Prepare(oltpSQL)
	if err != nil {
		return nil, err
	}
	tmpl, err := sql.ParseTemplate(eng.Catalog(), oltpSQL)
	if err != nil {
		return nil, err
	}
	o := &oltp{
		eng: eng, ref: ref, stmt: stmt, tmpl: tmpl,
		opts:  &pagefeedback.RunOptions{WarmCache: true},
		topts: &pagefeedback.RunOptions{WarmCache: true, Trace: true},
	}
	for cl := 0; cl < oltpClients; cl++ {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(cl)))
		z := rand.NewZipf(rng, 1.1, 1, rows-1)
		keys := make([]oltpKey, oltpKeys)
		for i := range keys {
			lo := int64(z.Uint64())
			keys[i] = oltpKey{lo: lo, hi: lo + 9, want: ref.t.countBetween(4, lo, lo+9)}
		}
		o.keys = append(o.keys, keys)
	}
	return o, nil
}

func (o *oltp) passLen() int { return 1 }

func (o *oltp) unit(c *client) error {
	k := o.keys[c.id][c.i%oltpKeys]
	c.args[0], c.args[1] = pagefeedback.Int64(k.lo), pagefeedback.Int64(k.hi)
	var res *pagefeedback.Result
	var err error
	if c.tr == nil {
		res, err = c.run(func() (*pagefeedback.Result, error) { return o.stmt.Query(c.args[:], o.opts) })
	} else {
		c.tr.begin("sql.bind")
		q, berr := o.tmpl.Bind(c.args[:])
		c.tr.end(1)
		if berr != nil {
			return berr
		}
		res, err = c.run(func() (*pagefeedback.Result, error) { return o.eng.RunQuery(q, o.topts) })
	}
	if err != nil {
		return err
	}
	return checkInt(res, k.want, "oltp")
}

// oltpReplay is how many of client 0's keys the serial replay runs.
const oltpReplay = 4096

// guards replays client 0's first keys serially from an empty pool, which
// makes their simulated times exact, then runs one feedback pass.
func (o *oltp) guards(*client) (float64, float64, error) {
	if err := o.eng.Pool().Reset(); err != nil {
		return 0, 0, err
	}
	var sim time.Duration
	for _, k := range o.keys[0][:oltpReplay] {
		res, err := o.stmt.Query([]pagefeedback.Value{pagefeedback.Int64(k.lo), pagefeedback.Int64(k.hi)}, o.opts)
		if err != nil {
			return 0, 0, err
		}
		if err := checkInt(res, k.want, "oltp replay"); err != nil {
			return 0, 0, err
		}
		sim += res.SimulatedTime
	}
	speedup, err := feedbackPass(o.eng, o.ref)
	return float64(sim) / 1e6 / oltpReplay, speedup, err
}

func (o *oltp) probes() probeSet {
	k := o.keys[0][0]
	return probeSet{
		tables:     []string{"t"},
		queries:    []string{fmt.Sprintf("SELECT COUNT(padding) FROM t WHERE c5 BETWEEN %d AND %d", k.lo, k.hi)},
		template:   oltpSQL,
		args:       []pagefeedback.Value{pagefeedback.Int64(k.lo), pagefeedback.Int64(k.hi)},
		monitorSQL: fmt.Sprintf("SELECT COUNT(padding) FROM t WHERE c5 BETWEEN %d AND %d", k.lo, k.hi),
		opts:       pagefeedback.RunOptions{WarmCache: true},
	}
}

// ---- analytic ----

// analyticPass is the query rotation: five query kinds, every fourth query
// monitored, so each kind runs monitored once per pass.
const analyticPass = 20

// analyticPasses is how many passes of distinct literal constants are
// generated; the window cycles through them.
const analyticPasses = 8

type anQuery struct {
	sql  string
	want []int64 // the scalar result, or the COUNT per tb.w group
}

type analytic struct {
	eng     *pagefeedback.Engine
	ref     *refData
	queries []anQuery
	// opts[monitored][traced]
	opts [2][2]*pagefeedback.RunOptions
}

func newAnalytic(eng *pagefeedback.Engine, ref *refData, seed int64) (workload, error) {
	a := &analytic{eng: eng, ref: ref}
	for m := 0; m < 2; m++ {
		for t := 0; t < 2; t++ {
			o := &pagefeedback.RunOptions{WarmCache: true, Parallelism: 2, Trace: t == 1}
			if m == 1 {
				o.MonitorAll, o.SampleFraction = true, 0.01
			}
			a.opts[m][t] = o
		}
	}
	rng := rand.New(rand.NewSource(seed*1000003 + 17))
	for i := 0; i < analyticPass*analyticPasses; i++ {
		// Each pass runs every kind four times; the four draw their
		// selectivities from the four quarters of the kind's range, so every
		// pass does about the same work whatever the seed.
		between := func(lo, hi float64) int64 {
			return int64((lo + (hi-lo)*(float64(i/5%4)+rng.Float64())/4) * rows)
		}
		var q anQuery
		switch i % 5 {
		case 0: // raw filter over the integer table
			lo := int64(rng.Float64() * rows / 2)
			hi := lo + between(0.2, 0.5)
			q.sql = fmt.Sprintf("SELECT SUM(w) FROM tb WHERE v BETWEEN %d AND %d", lo, hi)
			q.want = []int64{tbSum(func(i int) bool { v := tbV(i); return v >= lo && v <= hi }, tbW)}
		case 1: // decoded filter over T
			lo := int64(rng.Float64() * rows / 2)
			hi := lo + between(0.2, 0.5)
			var s int64
			for r, v := range ref.t.cols[4] {
				if v >= lo && v <= hi {
					s += ref.t.cols[3][r]
				}
			}
			q.sql = fmt.Sprintf("SELECT SUM(c4) FROM t WHERE c5 BETWEEN %d AND %d", lo, hi)
			q.want = []int64{s}
		case 2: // hash join
			x := between(0.02, 0.1)
			q.sql = fmt.Sprintf("SELECT COUNT(t.padding) FROM t, t1 WHERE t1.c2 < %d AND t1.c5 = t.c5", x)
			q.want = []int64{ref.joinCount(1, x, 4)}
		case 3: // GROUP BY over the integer table
			x := between(0.25, 1)
			q.sql = fmt.Sprintf("SELECT w, COUNT(k) FROM tb WHERE v < %d GROUP BY w", x)
			q.want = make([]int64, tbGroups)
			for r := 0; r < rows; r++ {
				if tbV(r) < x {
					q.want[tbW(r)]++
				}
			}
		case 4: // two-atom raw filter
			w, v := between(0.0001, 0.0009), between(0.1, 0.6)
			q.sql = fmt.Sprintf("SELECT SUM(k) FROM tb WHERE w < %d AND v >= %d", w, v)
			q.want = []int64{tbSum(func(i int) bool { return tbW(i) < w && tbV(i) >= v }, func(i int) int64 { return int64(i) })}
		}
		a.queries = append(a.queries, q)
	}
	return a, nil
}

func tbSum(keep func(int) bool, val func(int) int64) int64 {
	var s int64
	for i := 0; i < rows; i++ {
		if keep(i) {
			s += val(i)
		}
	}
	return s
}

func (a *analytic) passLen() int { return analyticPass }

func (a *analytic) unit(c *client) error {
	q := a.queries[c.i%len(a.queries)]
	mon := 0
	if c.i%4 == 3 {
		mon = 1
	}
	var res *pagefeedback.Result
	var err error
	if c.tr == nil {
		opts := a.opts[mon][0]
		res, err = c.run(func() (*pagefeedback.Result, error) { return a.eng.Query(q.sql, opts) })
	} else {
		c.tr.begin("sql.parse")
		pq, perr := a.eng.ParseQuery(q.sql)
		c.tr.end(1)
		if perr != nil {
			return perr
		}
		opts := a.opts[mon][1]
		res, err = c.run(func() (*pagefeedback.Result, error) { return a.eng.RunQuery(pq, opts) })
	}
	if err != nil {
		return err
	}
	return checkAnalytic(res, q)
}

func checkAnalytic(res *pagefeedback.Result, q anQuery) error {
	if len(q.want) == 1 {
		return checkInt(res, q.want[0], q.sql)
	}
	got := make([]int64, tbGroups)
	for _, r := range res.Rows {
		if len(r) != 2 || r[0].Int < 0 || r[0].Int >= tbGroups || got[r[0].Int] != 0 {
			return &mismatch{fmt.Sprintf("%s: bad group row %v", q.sql, r)}
		}
		got[r[0].Int] = r[1].Int
	}
	for w := range got {
		if got[w] != q.want[w] {
			return &mismatch{fmt.Sprintf("%s: group %d has %d, want %d", q.sql, w, got[w], q.want[w])}
		}
	}
	return nil
}

// guards replays the first pass serially and unmonitored on the warm pool,
// where every page is resident and the simulated times are exact, then runs
// one feedback pass.
func (a *analytic) guards(*client) (float64, float64, error) {
	var sim time.Duration
	for _, q := range a.queries[:analyticPass] {
		res, err := a.eng.Query(q.sql, a.opts[0][0])
		if err != nil {
			return 0, 0, err
		}
		if err := checkAnalytic(res, q); err != nil {
			return 0, 0, err
		}
		sim += res.SimulatedTime
	}
	speedup, err := feedbackPass(a.eng, a.ref)
	return float64(sim) / 1e6 / analyticPass, speedup, err
}

func (a *analytic) probes() probeSet {
	var qs []string
	for _, q := range a.queries[:5] {
		qs = append(qs, q.sql)
	}
	return probeSet{
		tables:     []string{"tb", "t", "t1"},
		queries:    qs,
		template:   "SELECT SUM(w) FROM tb WHERE v BETWEEN ? AND ?",
		args:       []pagefeedback.Value{pagefeedback.Int64(rows / 4), pagefeedback.Int64(rows / 2)},
		monitorSQL: a.queries[1].sql,
		opts:       pagefeedback.RunOptions{WarmCache: true, Parallelism: 2},
	}
}
