package pagefeedback

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"pagefeedback/internal/exec"
)

// raiseProcs lifts GOMAXPROCS to at least n for the test's duration so the
// engine's degree clamp does not silently serialize parallel runs on small CI
// machines; correctness of the parallel mode does not depend on real cores.
func raiseProcs(t *testing.T, n int) {
	t.Helper()
	if runtime.GOMAXPROCS(0) >= n {
		return
	}
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestParallelStressMixedDegreesOneEngine is the -race workhorse for the
// intra-query parallel mode: many goroutines run serial and parallel queries
// (scans and hash joins, monitored and not) against ONE engine at once, so
// partitioned workers, monitor shard merges, prefetch I/O, and plain serial
// executions all interleave on the shared buffer pool.
func TestParallelStressMixedDegreesOneEngine(t *testing.T) {
	raiseProcs(t, 4)
	eng := joinTestEnv(t, 8000)
	// Warm the cache once; WarmCache below keeps each query from resetting
	// the shared pool under its neighbors.
	if _, err := eng.Query("SELECT COUNT(padding) FROM t WHERE c2 < 8000", nil); err != nil {
		t.Fatal(err)
	}

	queries := []struct {
		sql  string
		want int64 // -1: don't check the count
	}{
		{"SELECT COUNT(padding) FROM t WHERE c2 < 6000", 6000},
		{"SELECT COUNT(padding) FROM t WHERE c5 < 4000", 4000},
		{"SELECT COUNT(padding) FROM t, u WHERE u.c1 < 400 AND u.c2 = t.c2", -1},
	}
	degrees := []int{0, 2, 4}

	const workers = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				q := queries[(w+i)%len(queries)]
				opts := &RunOptions{
					WarmCache:   true,
					Parallelism: degrees[(w+i)%len(degrees)],
					MonitorAll:  (w+i)%2 == 0,
				}
				res, err := eng.Query(q.sql, opts)
				if err != nil {
					errs <- fmt.Errorf("worker %d %q p=%d: %v", w, q.sql, opts.Parallelism, err)
					return
				}
				if q.want >= 0 {
					if got := res.Rows[0][0].Int; got != q.want {
						errs <- fmt.Errorf("worker %d %q p=%d: count = %d, want %d",
							w, q.sql, opts.Parallelism, got, q.want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	assertNoPins(t, eng)
}

// TestParallelFeedbackMatchesSerialEngineLevel runs the same monitored
// queries serially and at parallelism 4 through the full engine stack and
// requires identical DPC feedback — the end-to-end version of the exec-level
// partition-invariance property tests.
func TestParallelFeedbackMatchesSerialEngineLevel(t *testing.T) {
	raiseProcs(t, 4)
	eng := joinTestEnv(t, 8000)
	for _, sql := range []string{
		"SELECT COUNT(padding) FROM t WHERE c5 < 4000",
		"SELECT COUNT(padding) FROM t, u WHERE u.c1 < 400 AND u.c2 = t.c2",
	} {
		run := func(deg int) []exec.DPCResult {
			res, err := eng.Query(sql, &RunOptions{
				MonitorAll: true, SampleFraction: 0.25, WarmCache: true, Parallelism: deg,
			})
			if err != nil {
				t.Fatalf("%q p=%d: %v", sql, deg, err)
			}
			return res.DPC
		}
		ser, par := run(0), run(4)
		if !reflect.DeepEqual(ser, par) {
			t.Errorf("%q: DPC feedback differs:\n  serial   %+v\n  parallel %+v", sql, ser, par)
		}
	}
	assertNoPins(t, eng)
}

// TestParallelStressTwoEnginesShareArenaPool: the output arenas of parallel
// scans come from one process-wide pool, and every scan hands its arenas
// back at Close. Goroutines run row-returning parallel scans, hash joins and
// GROUP BYs against two engines at once, each result is compared with the
// serial run's row multiset: an arena refilled while a consumer still read
// it would show as a wrong row, and under -race as a data race.
func TestParallelStressTwoEnginesShareArenaPool(t *testing.T) {
	raiseProcs(t, 4)
	engs := []*Engine{joinTestEnv(t, 8000), joinTestEnv(t, 6000)}
	queries := []string{
		"SELECT c1, padding FROM t WHERE c5 < 3000",
		"SELECT t.c1, u.c1 FROM t, u WHERE u.c1 < 2000 AND u.c2 = t.c2",
		"SELECT c2, COUNT(*) FROM t WHERE c5 < 4000 GROUP BY c2",
	}
	canon := func(rows []Row) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprint(r)
		}
		sort.Strings(out)
		return out
	}
	want := make([][][]string, len(engs))
	for e, eng := range engs {
		for _, sql := range queries {
			res, err := eng.Query(sql, &RunOptions{WarmCache: true})
			if err != nil {
				t.Fatalf("engine %d %q serial: %v", e, sql, err)
			}
			want[e] = append(want[e], canon(res.Rows))
		}
	}

	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				e, q := (w+i)%len(engs), (w+i/2)%len(queries)
				deg := 2 + 2*(i%2)
				res, err := engs[e].Query(queries[q], &RunOptions{WarmCache: true, Parallelism: deg})
				if err != nil {
					errs <- fmt.Errorf("worker %d engine %d %q p=%d: %v", w, e, queries[q], deg, err)
					return
				}
				if got := canon(res.Rows); !reflect.DeepEqual(got, want[e][q]) {
					errs <- fmt.Errorf("worker %d engine %d %q p=%d: %d rows differ from the serial %d",
						w, e, queries[q], deg, len(got), len(want[e][q]))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, eng := range engs {
		assertNoPins(t, eng)
	}
}
