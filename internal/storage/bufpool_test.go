package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

func newPoolForTest(capacity int) (*BufferPool, FileID) {
	d := NewDiskManager(testModel())
	bp := NewBufferPool(d, capacity)
	return bp, d.CreateFile()
}

func TestBufferPoolNewPageAndFetch(t *testing.T) {
	bp, f := newPoolForTest(8)
	pp, err := bp.NewPage(f, PageTypeHeap)
	if err != nil {
		t.Fatal(err)
	}
	pp.Page.InsertCell([]byte("payload"))
	pid := pp.ID
	pp.Unpin(true)

	got, err := bp.FetchPage(f, pid)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Page.Cell(0)) != "payload" {
		t.Errorf("cell = %q", got.Page.Cell(0))
	}
	got.Unpin(false)
	st := bp.Stats()
	if st.Hits != 1 {
		t.Errorf("Hits = %d, want 1 (page was cached)", st.Hits)
	}
}

func TestBufferPoolTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewBufferPool(1) did not panic")
		}
	}()
	d := NewDiskManager(testModel())
	NewBufferPool(d, 1)
}

func TestBufferPoolEvictionWritesBack(t *testing.T) {
	bp, f := newPoolForTest(8)
	// Create 20 pages through an 8-page pool; early pages must be evicted
	// and written back, then read back intact.
	for i := 0; i < 20; i++ {
		pp, err := bp.NewPage(f, PageTypeHeap)
		if err != nil {
			t.Fatal(err)
		}
		pp.Page.InsertCell([]byte(fmt.Sprintf("page-%d", i)))
		pp.Unpin(true)
	}
	if bp.Stats().Evictions == 0 {
		t.Fatal("no evictions happened")
	}
	for i := 0; i < 20; i++ {
		pp, err := bp.FetchPage(f, PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("page-%d", i); string(pp.Page.Cell(0)) != want {
			t.Errorf("page %d cell = %q, want %q", i, pp.Page.Cell(0), want)
		}
		pp.Unpin(false)
	}
}

func TestBufferPoolClockSecondChance(t *testing.T) {
	bp, f := newPoolForTest(8)
	if bp.Shards() != 1 {
		t.Fatalf("Shards() = %d, want 1 at capacity 8", bp.Shards())
	}
	var pids []PageID
	for i := 0; i < 8; i++ {
		pp, _ := bp.NewPage(f, PageTypeHeap)
		pids = append(pids, pp.ID)
		pp.Unpin(true)
	}
	// Force one eviction cycle: the sweep clears every reference bit, wraps,
	// and evicts the oldest frame (pids[0]).
	pp, _ := bp.NewPage(f, PageTypeHeap)
	pp.Unpin(true)

	// Re-reference a resident page; its second-chance bit must protect it
	// from the next eviction while an unreferenced neighbour is taken.
	pp, err := bp.FetchPage(f, pids[1])
	if err != nil {
		t.Fatal(err)
	}
	pp.Unpin(false)
	npp, _ := bp.NewPage(f, PageTypeHeap)
	npp.Unpin(true)

	bp.Disk().ResetStats()
	pp, _ = bp.FetchPage(f, pids[1]) // referenced: must still be cached
	pp.Unpin(false)
	if got := bp.Disk().Stats().PhysicalReads; got != 0 {
		t.Errorf("referenced page was evicted (physical reads = %d)", got)
	}
	bp.Disk().ResetStats()
	pp, _ = bp.FetchPage(f, pids[0]) // victim of the first sweep
	pp.Unpin(false)
	if got := bp.Disk().Stats().PhysicalReads; got != 1 {
		t.Errorf("unreferenced page was not evicted (physical reads = %d)", got)
	}
}

func TestBufferPoolAllPinnedError(t *testing.T) {
	bp, f := newPoolForTest(8)
	var pins []*PinnedPage
	for i := 0; i < 8; i++ {
		pp, err := bp.NewPage(f, PageTypeHeap)
		if err != nil {
			t.Fatal(err)
		}
		pins = append(pins, pp)
	}
	if _, err := bp.NewPage(f, PageTypeHeap); err == nil {
		t.Error("NewPage with all frames pinned succeeded")
	}
	for _, pp := range pins {
		pp.Unpin(false)
	}
	if _, err := bp.NewPage(f, PageTypeHeap); err != nil {
		t.Errorf("NewPage after unpin failed: %v", err)
	}
}

func TestBufferPoolDoubleUnpinPanics(t *testing.T) {
	bp, f := newPoolForTest(8)
	pp, _ := bp.NewPage(f, PageTypeHeap)
	pp.Unpin(false)
	defer func() {
		if recover() == nil {
			t.Error("double unpin did not panic")
		}
	}()
	pp.Unpin(false)
}

func TestBufferPoolResetColdCache(t *testing.T) {
	bp, f := newPoolForTest(16)
	pp, _ := bp.NewPage(f, PageTypeHeap)
	pp.Page.InsertCell([]byte("durable"))
	pid := pp.ID
	pp.Unpin(true)

	if err := bp.Reset(); err != nil {
		t.Fatal(err)
	}
	bp.Disk().ResetStats()
	got, err := bp.FetchPage(f, pid)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Unpin(false)
	if bp.Disk().Stats().PhysicalReads != 1 {
		t.Error("Reset did not cold the cache")
	}
	if string(got.Page.Cell(0)) != "durable" {
		t.Error("dirty page lost across Reset")
	}
}

// TestBufferPoolResetRecyclesFrames checks that Reset keeps each shard's
// frames and page buffers: refilling the pool after a reset allocates no
// page buffer, and a fetch sequence that overflows capacity — with hits,
// second chances and pinned frames — evicts in exactly the order, and ends
// with exactly the Stats, of a freshly built pool.
func TestBufferPoolResetRecyclesFrames(t *testing.T) {
	const capacity, pages = 32, 96
	d := NewDiskManager(testModel())
	f := d.CreateFile()
	pids := preparePages(t, NewBufferPool(d, capacity), f, pages)

	fetch := func(bp *BufferPool, pid PageID) *PinnedPage {
		t.Helper()
		pp, err := bp.FetchPage(f, pid)
		if err != nil {
			t.Fatal(err)
		}
		return pp
	}
	buffers := func(bp *BufferPool) map[*byte]bool {
		m := map[*byte]bool{}
		for _, s := range bp.shards {
			for _, fr := range s.ring {
				m[&fr.buf[0]] = true
			}
		}
		return m
	}
	resident := func(bp *BufferPool) map[frameKey]bool {
		m := map[frameKey]bool{}
		for _, s := range bp.shards {
			for k := range s.frames {
				m[k] = true
			}
		}
		return m
	}

	recycled := NewBufferPool(d, capacity)
	for _, pid := range pids {
		fetch(recycled, pid).Unpin(false)
	}
	before := buffers(recycled)
	if len(before) != capacity {
		t.Fatalf("warm-up left %d frames, want %d", len(before), capacity)
	}
	if err := recycled.Reset(); err != nil {
		t.Fatal(err)
	}
	recycled.ResetStats()

	// Refilling allocates no page buffer: the fetch handles are all that
	// is allocated, far less than one page per miss.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, pid := range pids[:capacity] {
		fetch(recycled, pid).Unpin(false)
	}
	runtime.ReadMemStats(&m1)
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= capacity*PageSize/4 {
		t.Errorf("refilling %d frames after Reset allocated %d bytes", capacity, got)
	}
	if err := recycled.Reset(); err != nil {
		t.Fatal(err)
	}
	recycled.ResetStats()

	fresh := NewBufferPool(d, capacity)
	rng := rand.New(rand.NewSource(5))
	var held [2][]*PinnedPage // the two most recent fetches stay pinned
	for step := 0; step < 400; step++ {
		pid := pids[rng.Intn(pages)]
		if rng.Intn(3) == 0 {
			pid = pids[rng.Intn(pages/4)] // a hot quarter earns hits and second chances
		}
		for i, bp := range []*BufferPool{recycled, fresh} {
			held[i] = append(held[i], fetch(bp, pid))
			if len(held[i]) > 2 {
				held[i][0].Unpin(false)
				held[i] = held[i][1:]
			}
		}
		if got, want := resident(recycled), resident(fresh); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (page %d): resident set after Reset differs from a fresh pool's", step, pid)
		}
	}
	for i := range held {
		for _, pp := range held[i] {
			pp.Unpin(false)
		}
	}
	if got, want := recycled.Stats(), fresh.Stats(); got != want {
		t.Errorf("Stats after Reset = %+v, fresh pool = %+v", got, want)
	}
	if want := fresh.Stats().Evictions; want == 0 {
		t.Fatal("the fetch sequence never overflowed the pool")
	}
	if after := buffers(recycled); !reflect.DeepEqual(after, before) {
		t.Errorf("page buffers changed across Reset: %d before, %d after", len(before), len(after))
	}
}

func TestBufferPoolResetWithPinnedFails(t *testing.T) {
	bp, f := newPoolForTest(8)
	pp, _ := bp.NewPage(f, PageTypeHeap)
	defer pp.Unpin(false)
	if err := bp.Reset(); err == nil {
		t.Error("Reset with pinned page succeeded")
	}
}

func TestBufferPoolFlush(t *testing.T) {
	bp, f := newPoolForTest(8)
	pp, _ := bp.NewPage(f, PageTypeHeap)
	pp.Page.InsertCell([]byte("flushed"))
	pid := pp.ID
	pp.Unpin(true)
	if err := bp.Flush(); err != nil {
		t.Fatal(err)
	}
	// Read straight from disk, bypassing the pool.
	raw := make([]byte, PageSize)
	if err := bp.Disk().ReadPage(f, pid, raw); err != nil {
		t.Fatal(err)
	}
	if string(pageFromBuf(raw).Cell(0)) != "flushed" {
		t.Error("Flush did not write page to disk")
	}
}

func TestPoolStatsSub(t *testing.T) {
	a := PoolStats{LogicalReads: 10, Hits: 5, Evictions: 2}
	b := PoolStats{LogicalReads: 4, Hits: 1, Evictions: 1}
	got := a.Sub(b)
	if got.LogicalReads != 6 || got.Hits != 4 || got.Evictions != 1 {
		t.Errorf("Sub = %+v", got)
	}
}
