package exec

import (
	"fmt"
	"runtime/debug"
	"sync"

	"pagefeedback/internal/catalog"
	"pagefeedback/internal/expr"
	"pagefeedback/internal/trace"
	"pagefeedback/internal/tuple"
)

// parFlushRows is how many rows a worker accumulates before shipping a batch
// to the consumer; large enough to amortize channel traffic, small enough to
// keep the pipeline moving.
const parFlushRows = 1024

// parPrefetchChunk is the read-ahead window a worker asks the buffer pool to
// prefetch as it advances through its page range.
const parPrefetchChunk = 16

// parBatch is one message from a scan worker to the consumer: an arena of
// materialized rows, or a terminal error.
type parBatch struct {
	out *parArena
	err error
}

// parArena is a worker's output arena. One arena travels from a worker,
// through the exchange channel, to the consumer, and back to the scan's free
// list, so a scan allocates only the arenas it has in flight at once.
type parArena struct {
	rowArena
	charged int // values already charged to the current query's budget
}

// arenaPool keeps output arenas across parallel scans: a closing scan
// returns its arenas here, and a scan whose free list is empty takes one
// from here before allocating.
var arenaPool = sync.Pool{New: func() any { return new(parArena) }}

// add appends one output row, the concatenation of head and tail, charging
// the query's memory budget first for the values that take the arena past
// the most it has held in this query. A recycled arena is therefore charged
// again only for growth, and a scan's charge is bounded by the arenas it has
// in flight, not by the rows it delivers.
func (a *parArena) add(mem *MemTracker, head, tail tuple.Row) error {
	width := len(head) + len(tail)
	n := len(a.vals) + width
	if err := mem.Grow(int64(n-a.charged) * valueMemSize); err != nil {
		return err
	}
	a.charged = max(a.charged, n)
	if a.vals == nil {
		// A fresh arena is sized for a full flush up front: growing it by
		// append doubling would allocate (and copy) about twice the final
		// size in discarded steps. Flushes happen on page boundaries, so
		// leave headroom for the last page's overshoot past parFlushRows.
		a.vals = make([]tuple.Value, 0, (parFlushRows+parFlushRows/2)*width)
		a.bounds = make([]int, 0, parFlushRows+parFlushRows/2)
	}
	a.vals = append(a.vals, head...)
	a.vals = append(a.vals, tail...)
	a.endRow()
	return nil
}

// probeFn is a hash-join probe pushed down into parallel scan workers — the
// partitioned probe phase of a parallel hash join. It runs on worker
// goroutines against read-only shared state and returns the build rows that
// match a probe row; the worker emits each match joined with the row. key is
// a scratch buffer private to the worker, returned (possibly grown) for the
// next row.
type probeFn func(wctx *Context, row tuple.Row, key []byte) (matches []tuple.Row, keyOut []byte)

// ParallelScan executes a full table scan as a partition-parallel exchange:
// the table is split into contiguous page-disjoint partitions (heap PID
// ranges or clustered leaf-chain ranges), one worker drains each partition
// with its own row batch and a private shard of every attached monitor, and
// rows flow to the single consumer over a channel. Monitor shards and
// per-worker CPU accounting merge exactly once, at the barrier after all
// workers exit.
//
// Because each partition preserves grouped page access and the core counters
// sample pages by a pure function of (seed, pid), the merged monitor state —
// DPC estimates, cardinalities, quarantine status — is byte-identical to a
// serial scan's. Row order is not: partitions interleave at channel
// granularity, so the builder only plants this operator in order-insensitive
// subtrees.
type ParallelScan struct {
	ctx      *Context
	tab      *catalog.Table
	filt     scanFilter // the scan predicate; workers share it read-only
	degree   int
	monitors []*scanMonitor // templates; receive merged shard state
	probe    probeFn        // optional probe push-down, set before Open
	stats    OpStats

	out       chan parBatch
	free      chan *parArena // arenas the consumer is done with
	held      *parArena      // the arena behind the last delivered batch
	stop      chan struct{}
	wg        sync.WaitGroup
	wctxs     []*Context
	shards    [][]*scanMonitor // shards[worker][monitor]
	actRows   []int64          // per-worker rows passing the scan predicate
	stopped   bool
	finalized bool
}

// NewParallelScan builds a parallel scan of tab filtered by pred (bound to
// the table's schema) with the given worker degree (>= 2).
func NewParallelScan(ctx *Context, tab *catalog.Table, pred expr.Conjunction, degree int) *ParallelScan {
	return &ParallelScan{
		ctx: ctx, tab: tab, filt: newScanFilter(ctx, pred, tab.Schema), degree: degree,
		stats: OpStats{Label: fmt.Sprintf("ParallelScan(%s) x%d", tab.Name, degree)},
	}
}

// attach adds a monitor template (called by the builder). Each worker
// observes through a private shard of it; the template only ever sees merged
// state.
func (p *ParallelScan) attach(m *scanMonitor) { p.monitors = append(p.monitors, m) }

// Table returns the scanned table.
func (p *ParallelScan) Table() *catalog.Table { return p.tab }

// Degree returns the number of partitions the scan was asked to run with.
func (p *ParallelScan) Degree() int { return p.degree }

// SetProbe pushes a hash-join probe into the workers, which then emit
// (build row, probe row) concatenations instead of scanned rows. Must be
// called before Open; the probe's shared state must be read-only by then.
func (p *ParallelScan) SetProbe(fn probeFn) { p.probe = fn }

// Open implements Operator: it partitions the table and starts one worker
// per partition. A closer goroutine shuts the output channel once every
// worker has exited, which is the consumer's end-of-stream signal.
func (p *ParallelScan) Open() error {
	parts, err := p.tab.ScanPartitions(p.degree)
	if err != nil {
		return err
	}
	p.stop = make(chan struct{})
	p.out = make(chan parBatch, 2*p.degree)
	// Every arena of the scan is at a worker, in the channel, held by the
	// consumer, or on the free list, so the free list never fills.
	p.free = make(chan *parArena, len(parts)+cap(p.out)+1)
	p.stopped = false
	p.finalized = false
	p.wctxs = p.wctxs[:0]
	p.shards = p.shards[:0]
	p.actRows = make([]int64, len(parts))
	for i, part := range parts {
		wctx := p.ctx.child()
		shard := make([]*scanMonitor, len(p.monitors))
		for j, m := range p.monitors {
			shard[j] = m.shard()
		}
		p.wctxs = append(p.wctxs, wctx)
		p.shards = append(p.shards, shard)
		p.wg.Add(1)
		go p.worker(i, wctx, part, shard)
	}
	go func() {
		p.wg.Wait()
		close(p.out)
	}()
	return nil
}

// worker drains one partition. It owns its iterator, page buffer, output
// arena, monitor shard, and context; the only shared mutable state it
// touches is the exchange and free-list channels. A panic anywhere inside —
// decode failures, monitor bugs escaping the quarantine guard — is converted
// to an *OperatorPanic and shipped to the consumer like any other error, so
// the process-wide panic boundary holds across goroutines.
func (p *ParallelScan) worker(idx int, wctx *Context, part catalog.ScanPart, mons []*scanMonitor) {
	var out *parArena // the arena being filled; nil until a row passes
	defer p.wg.Done()
	defer part.Iter.Close()
	defer func() {
		if r := recover(); r != nil {
			p.send(parBatch{err: recoveredPanic(p.stats.Label, r)})
		}
		if out != nil {
			arenaPool.Put(out)
		}
	}()
	// On traced runs every worker emits one partition span into the shared
	// recorder — concurrent lock-free emission is exactly what the span
	// buffer is built for. Workers start after the operator's Open began
	// and exit before its Close returns, so the span nests in the
	// operator's lifetime. The row count is worker-local until the
	// finalize barrier, so reading it here races with nothing.
	if tr := wctx.Trace; tr != nil {
		pstart := tr.Now()
		defer func() {
			tr.Emit(trace.Span{
				Op: p.stats.OpID, Kind: trace.KindPartition,
				Start: pstart, End: tr.Now(), N: p.actRows[idx],
			})
		}()
	}

	var (
		pg    pageSel
		key   []byte // the probe's key scratch
		pages int
	)
	// emit moves the page's survivors — or, under a pushed-down probe,
	// their joined rows — into the output arena.
	emit := func() error {
		if out == nil {
			out = p.arena()
		}
		for _, i := range pg.live {
			row := pg.batch.Rows[i]
			if p.probe == nil {
				if err := out.add(wctx.Mem, row, nil); err != nil {
					return err
				}
				continue
			}
			var matches []tuple.Row
			matches, key = p.probe(wctx, row, key)
			for _, b := range matches {
				if err := out.add(wctx.Mem, b, row); err != nil {
					return err
				}
			}
		}
		return nil
	}

	p.prefetch(part, 0)
	for {
		ok, err := p.filt.next(wctx, part.Iter, mons, &pg)
		if err != nil {
			p.send(parBatch{err: err})
			return
		}
		if !ok {
			break
		}
		pages++
		if pages%parPrefetchChunk == 0 {
			p.prefetch(part, pages)
		}
		if len(pg.live) == 0 {
			continue
		}
		p.actRows[idx] += int64(len(pg.live))
		if err := emit(); err != nil {
			p.send(parBatch{err: err})
			return
		}
		if out.n() >= parFlushRows {
			if !p.send(parBatch{out: out}) {
				return
			}
			out = nil
		}
	}
	if out != nil && out.n() > 0 && p.send(parBatch{out: out}) {
		out = nil
	}
}

// arena returns an empty output arena: one the consumer has handed back,
// else one from the process-wide pool, which this query has not been
// charged for yet.
func (p *ParallelScan) arena() *parArena {
	var a *parArena
	select {
	case a = <-p.free:
	default:
		a = arenaPool.Get().(*parArena)
		a.charged = 0
	}
	a.vals = a.vals[:0]
	a.bounds = a.bounds[:0]
	return a
}

// prefetch asks the pool to read ahead the next chunk of the partition's
// pages. Purely advisory: the pool skips resident pages and drops requests
// under pressure.
func (p *ParallelScan) prefetch(part catalog.ScanPart, done int) {
	lo := done
	hi := done + parPrefetchChunk
	if hi > len(part.Pages) {
		hi = len(part.Pages)
	}
	if lo < hi {
		p.ctx.Pool.Prefetch(part.File, part.Pages[lo:hi])
	}
}

// send ships one message to the consumer, giving up if the scan is being
// torn down. Returns false when the worker should exit.
func (p *ParallelScan) send(b parBatch) bool {
	select {
	case p.out <- b:
		return true
	case <-p.stop:
		return false
	}
}

// NextBatch implements Operator: each worker flush — an arena of rows the
// workers ship whole through the exchange channel — is forwarded to the
// consumer as one dense batch. The batch is valid until the next NextBatch
// or Close, as with page-batched scans: the next call hands its arena back
// to the workers for refilling. Row caps are ignored: rows are counted by
// the workers and pages read by them ahead of the consumer either way. The
// first error shipped by any worker surfaces here; Close then tears the
// remaining workers down.
func (p *ParallelScan) NextBatch(b *Batch) (int, error) {
	if p.held != nil {
		p.free <- p.held
		p.held = nil
	}
	msg, ok := <-p.out
	if !ok {
		p.finalize()
		return 0, nil
	}
	if msg.err != nil {
		return 0, msg.err
	}
	p.held = msg.out
	n := msg.out.emit(b)
	p.ctx.noteBatch()
	return n, nil
}

// Close implements Operator: it signals the workers to stop, drains the
// channel so none of them blocks on a send, waits for all of them to exit,
// and merges their state. Every arena of the scan then goes back to the
// process-wide pool. Safe to call multiple times.
func (p *ParallelScan) Close() error {
	if p.stop == nil {
		return nil // never opened
	}
	if !p.stopped {
		p.stopped = true
		close(p.stop)
	}
	for msg := range p.out {
		if msg.out != nil {
			arenaPool.Put(msg.out)
		}
	}
	p.finalize()
	if p.held != nil {
		arenaPool.Put(p.held)
		p.held = nil
	}
	for {
		select {
		case a := <-p.free:
			arenaPool.Put(a)
		default:
			return nil
		}
	}
}

// finalize runs once, after every worker has exited (the channel closing or
// Close's Wait proves it): worker CPU accounting folds into the query
// context, monitor shards fold into their templates, and per-worker row
// counts fold into the operator stats. This is the single barrier of the
// exchange — no merged state is visible until all partitions are done.
func (p *ParallelScan) finalize() {
	if p.finalized {
		return
	}
	p.wg.Wait()
	p.finalized = true
	for _, wctx := range p.wctxs {
		p.ctx.absorb(wctx)
	}
	for w, shard := range p.shards {
		for j, s := range shard {
			p.monitors[j].absorb(s)
		}
		p.stats.ActRows += p.actRows[w]
	}
}

// Schema implements Operator. With a probe installed the emitted rows are
// joined rows (the join that installed it reports that schema); without
// one, the table's.
func (p *ParallelScan) Schema() *tuple.Schema { return p.tab.Schema }

// Stats implements Operator. ActRows counts rows passing the scan predicate,
// matching the serial scan's accounting even when a probe push-down changes
// what the operator physically emits.
func (p *ParallelScan) Stats() *OpStats { return &p.stats }

// recoveredPanic converts a recovered worker panic into the same
// *OperatorPanic the single-goroutine boundary produces, so cross-goroutine
// panics surface to callers exactly like same-goroutine ones.
func recoveredPanic(label string, r any) error {
	if op, ok := r.(*OperatorPanic); ok {
		return op
	}
	return &OperatorPanic{Op: label, Value: r, Stack: debug.Stack()}
}
