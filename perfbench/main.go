// Command perfbench is the repository benchmark. It builds the synthetic
// T/T1 database of §V-B.1 from a seed, runs one closed-loop workload against
// the public pagefeedback API, checks every result against a reference
// computed from the generated rows, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics.
//
//	bash perfbench/run.sh --workload oltp --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --spec > BENCHMARK.json
//
// End-to-end metrics come from an untraced window. The traced run
// alternates untraced and traced segments of the same loop: engine counters
// come from the untraced segments, operator spans and the spans the
// benchmark puts around its calls into sql and opt from the traced ones, and
// the difference in throughput is the tracing overhead. The per-layer
// probes then call storage, tuple, expr, catalog, core, sql and opt
// functions directly on the workload's data.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"pagefeedback"
)

// client is one closed-loop caller: it sends its next unit only after the
// previous one completed.
type client struct {
	id   int
	i    int                      // units started in the current phase
	tr   *tracer                  // nil when untraced
	cold *pagefeedback.RunOptions // cold-cache options: nil, or tracing on
	args [2]pagefeedback.Value

	start             time.Time       // when the current phase started
	lat               []time.Duration // latency of each engine call
	ends              []time.Duration // when each engine call ended, from the phase start
	passEnds          []time.Duration // when each pass ended, from the phase start
	cycles            []cycle         // diagnose: T and T′ of each cycle
	ex                execTotals
	attempted, failed int
	mismatches        int
	firstErr          error
}

type cycle struct{ t, t2 time.Duration }

// execTotals sums the per-execution statistics of every engine call.
type execTotals struct {
	n                      int64
	logical, rows, batches int64
	wall, fixed            time.Duration
}

func newClient(id int, traced bool) *client {
	c := &client{id: id}
	if traced {
		c.tr = newTracer()
		c.cold = &pagefeedback.RunOptions{Trace: true}
	}
	return c
}

// run times one engine call and folds its statistics into the client's
// totals; a traced call also records the engine's operator spans.
func (c *client) run(call func() (*pagefeedback.Result, error)) (*pagefeedback.Result, error) {
	c.tr.begin("engine.run")
	start := time.Now()
	res, err := call()
	end := time.Now()
	d := end.Sub(start)
	c.lat = append(c.lat, d)
	c.ends = append(c.ends, end.Sub(c.start))
	if err == nil {
		rt := &res.Stats.Runtime
		c.ex.n++
		c.ex.logical += rt.LogicalReads
		c.ex.rows += rt.RowsTouched
		c.ex.batches += rt.BatchesProcessed
		c.ex.wall += res.WallTime
		c.ex.fixed += d - res.WallTime
		c.tr.operators(res.Stats.Plan)
	}
	c.tr.end(1)
	return res, err
}

func (c *client) note(err error) {
	c.attempted++
	if err == nil {
		return
	}
	c.failed++
	var m *mismatch
	if errors.As(err, &m) {
		c.mismatches++
	}
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// phase runs every client's loop for at least d and, when wholePasses is
// set, on to the end of the client's current pass, until the clients have
// made at least minCalls engine calls between them. It returns the elapsed
// wall time.
func phase(ctx context.Context, w workload, cs []*client, d time.Duration, wholePasses bool, minCalls int) time.Duration {
	start := time.Now()
	ctx, cancel := context.WithDeadline(ctx, start.Add(d))
	defer cancel()
	var wg sync.WaitGroup
	for _, c := range cs {
		c.i, c.start = 0, start
		wg.Add(1)
		go func(ctx context.Context, c *client) {
			defer wg.Done()
			for ctx.Err() == nil || (wholePasses && c.i%w.passLen() != 0) || len(c.lat)*len(cs) < minCalls {
				c.note(w.unit(c))
				if c.i++; c.i%w.passLen() == 0 {
					c.passEnds = append(c.passEnds, time.Since(start))
				}
			}
		}(ctx, c)
	}
	wg.Wait()
	return time.Since(start)
}

func newClients(n int, traced bool, seconds int) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = newClient(i, traced)
		// Room for 50k calls a second per client (oltp makes about 20k), so
		// the window does not grow them.
		cs[i].lat = make([]time.Duration, 0, 50000*seconds)
		cs[i].ends = make([]time.Duration, 0, 50000*seconds)
	}
	return cs
}

// outcome is what the last line of standard output reports.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload: diagnose, oltp or analytic")
	seed := flag.Int64("seed", 1, "seed for the data and the workload inputs")
	seconds := flag.Int("seconds", runSeconds, "length of the measured window in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	commit := flag.String("commit", "unknown", "commit being measured (for the stamp)")
	specOut := flag.Bool("spec", false, "print BENCHMARK.json and exit")
	flag.Parse()
	if *specOut {
		if err := writeSpec(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	var sp *spec
	for i := range workloads {
		if workloads[i].name == *name {
			sp = &workloads[i]
		}
	}
	if sp == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload diagnose|oltp|analytic --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	ctx := context.Background()
	b := &bench{sp: sp, seed: *seed, seconds: *seconds, commit: *commit}
	var out *outcome
	var err error
	if *traced == 1 {
		out, err = b.traceRun(ctx)
	} else {
		out, err = b.untracedRun(ctx)
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

type bench struct {
	sp      *spec
	seed    int64
	seconds int
	commit  string
	eng     *pagefeedback.Engine
	ref     *refData
	w       workload
	report  *bufio.Writer
}

// setup builds the database setups times and keeps the last engine; it
// returns the median build time in seconds.
func (b *bench) setup(setups int) (float64, error) {
	b.ref = newRefData(b.seed)
	var times []float64
	for i := 0; i < setups; i++ {
		b.eng = nil
		runtime.GC()
		start := time.Now()
		eng, err := setupEngine(b.seed, b.sp.poolPages, b.sp.withTB)
		if err != nil {
			return 0, err
		}
		times = append(times, time.Since(start).Seconds())
		b.eng = eng
	}
	w, err := b.sp.build(b.eng, b.ref, b.seed)
	if err != nil {
		return 0, err
	}
	b.w = w
	b.report = bufio.NewWriter(os.Stdout)
	b.stamp()
	sort.Float64s(times)
	return times[len(times)/2], nil
}

// warmup runs the loop untimed so caches fill and lazy set-up finishes.
const warmup = time.Second

// setupRuns is how many times an untraced run builds the database.
const setupRuns = 5

// minSamples is the fewest engine calls a window measures, so that its 99th
// percentile has at least ten calls beyond it; a slow window runs on, whole
// passes at a time, until it has them.
const minSamples = 1000

func (b *bench) untracedRun(ctx context.Context) (*outcome, error) {
	setupS, err := b.setup(setupRuns)
	if err != nil {
		return nil, err
	}
	all := newClients(b.sp.clients, false, 1)
	phase(ctx, b.w, all, warmup, false, 0)
	cs := newClients(b.sp.clients, false, b.seconds)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	elapsed := phase(ctx, b.w, cs, time.Duration(b.seconds)*time.Second, true, minSamples)
	runtime.ReadMemStats(&m1)

	units, calls := 0, 0
	for _, c := range cs {
		units += c.i
		calls += len(c.lat)
	}
	slices := slicesOf(cs, b.w.passLen())
	qps, p50, p99 := throughput(slices), 0.0, 0.0
	if b.w.passLen() > 1 {
		var lat []time.Duration
		for _, s := range slices {
			lat = append(lat, s.lat...)
		}
		p50, p99 = percentile(lat, 0.50), percentile(lat, 0.99)
	} else {
		var a, b []float64
		for _, s := range slices {
			a, b = append(a, percentile(s.lat, 0.50)), append(b, percentile(s.lat, 0.99))
		}
		p50, p99 = median(a), median(b)
	}
	simMS, speedup, err := b.w.guards(cs[0])
	if err != nil {
		return nil, err
	}
	out := b.outcome(append(all, cs...))
	b.put(out, "setup_s", setupS)
	b.put(out, "throughput_qps", qps)
	b.put(out, "latency_p50_us", p50)
	b.put(out, "latency_p99_us", p99)
	b.put(out, "alloc_kb_per_query", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(calls))
	b.put(out, "heap_live_mb", b.engineHeapMB())
	b.put(out, "sim_ms_per_query", simMS)
	b.put(out, "feedback_speedup_pct", speedup)
	fmt.Fprintf(b.report, "%-36s %14.6g %-6s (not in the JSON line: its failed and attempted carry it)\n",
		"error_rate", float64(out.Failed)/float64(out.Attempted), "ratio")
	fmt.Fprintf(b.report, "# %d engine calls in %d %s over %.3f s\n", calls, units, b.unitName(), elapsed.Seconds())
	return out, b.report.Flush()
}

// slice is one part of the window: the latencies of its engine calls and
// its length.
type slice struct {
	lat []time.Duration
	dur time.Duration
}

// slicesOf cuts the window into one slice per pass when the workload has
// passes (such workloads run one client), else into whole seconds holding
// every client's calls; the last second, cut short where the window ends,
// is dropped.
func slicesOf(cs []*client, passLen int) []slice {
	var out []slice
	if passLen > 1 {
		for _, c := range cs {
			var prev time.Duration
			j := 0
			for _, pe := range c.passEnds {
				s := slice{dur: pe - prev}
				for ; j < len(c.ends) && c.ends[j] <= pe; j++ {
					s.lat = append(s.lat, c.lat[j])
				}
				out = append(out, s)
				prev = pe
			}
		}
		return out
	}
	for _, c := range cs {
		for i, e := range c.ends {
			k := int(e / time.Second)
			for len(out) <= k {
				out = append(out, slice{dur: time.Second})
			}
			out[k].lat = append(out[k].lat, c.lat[i])
		}
	}
	return out[:len(out)-1]
}

// throughput is the median rate of engine calls over the slices, so a stall
// in one slice does not move it.
func throughput(slices []slice) float64 {
	var rates []float64
	for _, s := range slices {
		rates = append(rates, float64(len(s.lat))/s.dur.Seconds())
	}
	return median(rates)
}

func median(v []float64) float64 {
	sort.Float64s(v)
	return v[len(v)/2]
}

// engineHeapMB drops the benchmark's own data (the reference rows, the
// workload's inputs and the clients are garbage once the caller's last use
// is past) and returns the live heap after a collection: what the engine
// holds at the end of the run.
func (b *bench) engineHeapMB() float64 {
	b.w, b.ref = nil, nil
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(b.eng)
	return float64(m.HeapAlloc) / (1 << 20)
}

func (b *bench) unitName() string {
	if b.sp.name == "diagnose" {
		return "feedback cycles"
	}
	return "queries"
}

// traceSegments alternate untraced and traced, so drift hits both alike.
const traceSegments = 4

// traceRun is the per-layer run: engine counters from the untraced
// segments, operator and call spans from the traced ones, then the probes.
func (b *bench) traceRun(ctx context.Context) (*outcome, error) {
	if _, err := b.setup(1); err != nil {
		return nil, err
	}
	warm := newClients(b.sp.clients, false, 1)
	phase(ctx, b.w, warm, warmup, false, 0)

	plain := newClients(b.sp.clients, false, b.seconds)
	traced := newClients(b.sp.clients, true, b.seconds)
	seg := time.Duration(b.seconds) * time.Second / traceSegments
	var plainT, tracedT time.Duration
	var d counters
	var gc cpuDelta
	for s := 0; s < traceSegments; s++ {
		if s%2 == 1 {
			tracedT += phase(ctx, b.w, traced, seg, true, 0)
			continue
		}
		c0, g0 := b.counters(), readCPU()
		plainT += phase(ctx, b.w, plain, seg, true, 0)
		d = d.plus(b.counters().minus(c0))
		gc = gc.plus(readCPU().minus(g0))
	}
	tr := newTracer()
	for _, c := range traced {
		tr.merge(c.tr)
	}
	overhead, err := runProbes(b.eng, b.w.probes(), b.seed, tr)
	if err != nil {
		return nil, err
	}

	var ex, tex execTotals
	plainUnits, tracedUnits := 0, 0
	for _, c := range plain {
		ex.add(c.ex)
		plainUnits += c.i
	}
	for _, c := range traced {
		tex.add(c.ex)
		tracedUnits += c.i
	}
	all := append(append(warm, plain...), traced...)
	out := b.outcome(all)
	n := float64(ex.n)
	b.put(out, "storage.hit_ratio", float64(d.hits)/float64(d.logical))
	b.put(out, "storage.evictions_per_query", float64(d.evictions)/n)
	b.put(out, "storage.physical_reads_per_query", float64(d.physical)/n)
	b.put(out, "storage.pool_waits_per_query", float64(d.waits)/n)
	b.put(out, "storage.fetch_hit_ns", tr.perItem("storage.FetchPage.hit", time.Nanosecond))
	b.put(out, "storage.fetch_miss_ns", tr.perItem("storage.FetchPage.miss", time.Nanosecond))
	b.put(out, "storage.read_overcount", float64(ex.logical)/float64(d.logical))
	b.put(out, "tuple.decode_ns_per_row", tr.perItem("tuple.DecodeAppend", time.Nanosecond))
	b.put(out, "expr.eval_batch_ns_per_row", tr.perItem("expr.Compiled.EvalBatch", time.Nanosecond))
	b.put(out, "expr.eval_raw_ns_per_row", tr.perItem("expr.RawCompiled.Eval", time.Nanosecond))
	b.put(out, "catalog.scan_ns_per_page", tr.perItem("catalog.RowIter.NextPage", time.Nanosecond))
	b.put(out, "catalog.seek_fetch_us", tr.perItem("catalog.SeekRange+FetchRowInto", time.Microsecond))
	b.put(out, "core.observe_ns_per_page.grouped", tr.perItem("core.GroupedCounter.Observe", time.Nanosecond))
	b.put(out, "core.observe_ns_per_page.dpsample", tr.perItem("core.DPSample.Observe", time.Nanosecond))
	b.put(out, "core.observe_ns_per_page.linear", tr.perItem("core.LinearCounter.AddPID", time.Nanosecond))
	b.put(out, "core.observe_ns_per_page.bitvector", tr.perItem("core.BitVectorFilter", time.Nanosecond))
	b.put(out, "core.monitor_overhead_pct", overhead)
	b.put(out, "exec.run_us", float64(ex.wall)/1e3/n)
	b.put(out, "exec.rows_touched_per_query", float64(ex.rows)/n)
	b.put(out, "exec.batches_per_query", float64(ex.batches)/n)
	for _, place := range []string{"leaf", "inner"} {
		b.put(out, "exec.op_self_us."+place, float64(tr.self("exec.op."+place))/1e3/float64(tex.n))
	}
	b.put(out, "opt.optimize_us", tr.perItem("opt.optimize", time.Microsecond))
	b.put(out, "opt.apply_feedback_us", tr.perItem("opt.apply_feedback", time.Microsecond))
	hits, misses := float64(d.planHits), float64(d.planMisses)
	b.put(out, "plancache.hit_ratio", hits/(hits+misses))
	b.put(out, "plancache.stale_per_query", float64(d.planStale)/n)
	b.put(out, "sql.parse_us", tr.perItem("sql.parse", time.Microsecond))
	b.put(out, "sql.bind_us", tr.perItem("sql.bind", time.Microsecond))
	b.put(out, "engine.fixed_us", float64(ex.fixed)/1e3/n)
	b.put(out, "runtime.gc_cpu_pct", 100*gc.gc/gc.total)
	plainQPS := float64(plainUnits) / plainT.Seconds()
	tracedQPS := float64(tracedUnits) / tracedT.Seconds()
	b.put(out, "trace.overhead_pct", 100*(plainQPS/tracedQPS-1))
	fmt.Fprintf(b.report, "# untraced %d %s in %.3f s, traced %d in %.3f s; spans:\n",
		plainUnits, b.unitName(), plainT.Seconds(), tracedUnits, tracedT.Seconds())
	tr.write(b.report)
	return out, b.report.Flush()
}

func (e *execTotals) add(o execTotals) {
	e.n += o.n
	e.logical += o.logical
	e.rows += o.rows
	e.batches += o.batches
	e.wall += o.wall
	e.fixed += o.fixed
}

// outcome sums the clients' counts; any wrong result makes the run
// incorrect.
func (b *bench) outcome(cs []*client) *outcome {
	out := &outcome{Correct: true, Metrics: map[string]metric{}}
	for _, c := range cs {
		out.Attempted += c.attempted
		out.Failed += c.failed
		if c.mismatches > 0 {
			out.Correct = false
		}
		if c.firstErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: client %d: %d of %d failed, first: %v\n",
				c.id, c.failed, c.attempted, c.firstErr)
		}
	}
	return out
}

// put records one metric, prints it with its unit and, for a per-layer
// metric, the end-to-end metric it should move.
func (b *bench) put(out *outcome, name string, v float64) {
	def, ok := metricByName(name)
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	out.Metrics[name] = metric{Value: v, Unit: def.Unit}
	fmt.Fprintf(b.report, "%-36s %14.6g %-6s %s\n", name, v, def.Unit, def.moves)
}

// stamp prints what the numbers were measured on.
func (b *bench) stamp() {
	pages := map[string]int64{}
	for _, t := range b.eng.Catalog().Tables() {
		pages[t.Name] = t.NumPages()
	}
	s, _ := json.Marshal(map[string]any{
		"workload": b.sp.name, "seed": b.seed, "seconds": b.seconds, "commit": b.commit,
		"cpu": cpuModel(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "rows_per_table": rows, "table_pages": pages,
		"pool_pages": b.sp.poolPages, "clients": b.sp.clients,
	})
	fmt.Fprintf(b.report, "# stamp %s\n", s)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// percentile is the nearest-rank q-quantile of the durations, in µs. It
// sorts them in place.
func percentile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	return float64(ds[max(i, 0)]) / 1e3
}

// counters are the engine-wide totals the per-layer ratios are formed
// from.
type counters struct {
	logical, hits, evictions, physical int64
	waits                              int64
	planHits, planMisses, planStale    int64
}

func (b *bench) counters() counters {
	p, io, pc := b.eng.Pool().Stats(), b.eng.Pool().Disk().Stats(), b.eng.PlanCacheStats()
	return counters{
		logical: p.LogicalReads, hits: p.Hits, evictions: p.Evictions, physical: io.PhysicalReads,
		waits: p.Waits, planHits: pc.Hits, planMisses: pc.Misses, planStale: pc.Stale,
	}
}

func (c counters) plus(o counters) counters {
	return counters{
		logical: c.logical + o.logical, hits: c.hits + o.hits, evictions: c.evictions + o.evictions,
		physical: c.physical + o.physical, waits: c.waits + o.waits, planHits: c.planHits + o.planHits,
		planMisses: c.planMisses + o.planMisses, planStale: c.planStale + o.planStale,
	}
}

func (c counters) minus(o counters) counters {
	return c.plus(counters{
		logical: -o.logical, hits: -o.hits, evictions: -o.evictions, physical: -o.physical,
		waits: -o.waits, planHits: -o.planHits, planMisses: -o.planMisses, planStale: -o.planStale,
	})
}

// cpuDelta is process CPU time spent in GC and in total, in seconds.
type cpuDelta struct{ gc, total float64 }

func readCPU() cpuDelta {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return cpuDelta{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

func (d cpuDelta) plus(o cpuDelta) cpuDelta  { return cpuDelta{d.gc + o.gc, d.total + o.total} }
func (d cpuDelta) minus(o cpuDelta) cpuDelta { return cpuDelta{d.gc - o.gc, d.total - o.total} }
