package storage

import (
	"fmt"
	"testing"
)

// preparePages creates n pages with recognizable payloads and returns their
// ids, leaving the pool cold (all pages flushed and dropped).
func preparePages(t *testing.T, bp *BufferPool, f FileID, n int) []PageID {
	t.Helper()
	pids := make([]PageID, 0, n)
	for i := 0; i < n; i++ {
		pp, err := bp.NewPage(f, PageTypeHeap)
		if err != nil {
			t.Fatal(err)
		}
		pp.Page.InsertCell([]byte(fmt.Sprintf("page-%d", i)))
		pids = append(pids, pp.ID)
		pp.Unpin(true)
	}
	if err := bp.Reset(); err != nil {
		t.Fatal(err)
	}
	bp.ResetStats()
	return pids
}

func TestPrefetchWarmsPool(t *testing.T) {
	bp, f := newPoolForTest(64)
	pids := preparePages(t, bp, f, 16)

	bp.Prefetch(f, pids)
	bp.DrainPrefetch()

	st := bp.Stats()
	if st.Prefetched == 0 {
		t.Fatalf("Prefetched = 0, want > 0")
	}
	if st.LogicalReads != 0 || st.Hits != 0 {
		t.Errorf("prefetch polluted demand counters: reads=%d hits=%d", st.LogicalReads, st.Hits)
	}

	// Every prefetched page must now be a demand hit.
	for i, pid := range pids {
		pp, err := bp.FetchPage(f, pid)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("page-%d", i)
		if string(pp.Page.Cell(0)) != want {
			t.Errorf("pid %d: cell = %q, want %q", pid, pp.Page.Cell(0), want)
		}
		pp.Unpin(false)
	}
	st = bp.Stats()
	if st.Hits != int64(len(pids)) {
		t.Errorf("Hits = %d, want %d (all pages were prefetched)", st.Hits, len(pids))
	}
}

func TestPrefetchSkipsResidentPages(t *testing.T) {
	bp, f := newPoolForTest(64)
	pids := preparePages(t, bp, f, 4)
	for _, pid := range pids {
		pp, err := bp.FetchPage(f, pid)
		if err != nil {
			t.Fatal(err)
		}
		pp.Unpin(false)
	}
	before := bp.Stats().Prefetched
	bp.Prefetch(f, pids)
	for _, s := range bp.shards {
		if n := s.inflight.Load(); n != 0 {
			t.Errorf("resident pages took %d in-flight slots, want 0", n)
		}
	}
	bp.DrainPrefetch()
	if got := bp.Stats().Prefetched - before; got != 0 {
		t.Errorf("Prefetched %d resident pages, want 0", got)
	}
	// A chunk that is all resident costs no slice and no goroutine.
	if allocs := testing.AllocsPerRun(100, func() { bp.Prefetch(f, pids) }); allocs != 0 {
		t.Errorf("Prefetch of resident pages allocated %v times per call, want 0", allocs)
	}
}

func TestPrefetchNeverEvictsPinned(t *testing.T) {
	// A pool sized so one shard fills up: pin everything, then prefetch a
	// flood of other pages. The pinned frames must survive and the prefetch
	// must degrade to a no-op rather than erroring.
	bp, f := newPoolForTest(8)
	pids := preparePages(t, bp, f, 32)

	pinned := make([]*PinnedPage, 0, 8)
	for _, pid := range pids[:8] {
		pp, err := bp.FetchPage(f, pid)
		if err != nil {
			t.Fatal(err)
		}
		pinned = append(pinned, pp)
	}
	bp.Prefetch(f, pids[8:])
	bp.DrainPrefetch()
	for i, pp := range pinned {
		want := fmt.Sprintf("page-%d", i)
		if string(pp.Page.Cell(0)) != want {
			t.Errorf("pinned page %d clobbered: cell = %q", pp.ID, pp.Page.Cell(0))
		}
		pp.Unpin(false)
	}
	if got := bp.Pinned(); got != 0 {
		t.Errorf("Pinned = %d after unpinning all", got)
	}
}

func TestPrefetchWindowBoundsInflight(t *testing.T) {
	bp, f := newPoolForTest(512)
	pids := preparePages(t, bp, f, 400)
	// All 400 pages land in at most 16 shards with a window of 8 each, so a
	// single burst can admit at most 16*8 reads; the rest must be dropped,
	// not queued.
	bp.Prefetch(f, pids)
	bp.DrainPrefetch()
	if got := bp.Stats().Prefetched; got > int64(len(bp.shards)*prefetchWindow) {
		t.Errorf("Prefetched = %d, want <= %d (window per shard)", got, len(bp.shards)*prefetchWindow)
	}
}

func TestHitRatioZeroWithoutLogicalReads(t *testing.T) {
	// Regression: a query whose pages were all brought in by the prefetcher
	// but which was cancelled before touching any of them has a stats window
	// with zero logical reads; HitRatio must report 0, not NaN.
	bp, f := newPoolForTest(64)
	pids := preparePages(t, bp, f, 8)
	before := bp.Stats()
	bp.Prefetch(f, pids)
	bp.DrainPrefetch()
	window := bp.Stats().Sub(before)
	if window.LogicalReads != 0 {
		t.Fatalf("LogicalReads = %d, want 0 (prefetch only)", window.LogicalReads)
	}
	if got := window.HitRatio(); got != 0 {
		t.Errorf("HitRatio = %v, want 0", got)
	}
	if window.Prefetched == 0 {
		t.Errorf("Prefetched = 0, want > 0")
	}

	// And a normal window still reports a real ratio.
	before = bp.Stats()
	for _, pid := range pids[:4] {
		pp, err := bp.FetchPage(f, pid)
		if err != nil {
			t.Fatal(err)
		}
		pp.Unpin(false)
	}
	window = bp.Stats().Sub(before)
	if got := window.HitRatio(); got != 1 {
		t.Errorf("HitRatio = %v, want 1 (all prefetched)", got)
	}
}
