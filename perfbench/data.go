package main

import (
	"fmt"
	"math/rand"
	"sort"

	"pagefeedback"
	"pagefeedback/internal/datagen"
)

// rows is the size of every table: T, T1 and the integer table tb.
const rows = 100000

// tbGroups is the number of distinct tb.w values (the GROUP BY domain).
const tbGroups = 97

// setupEngine builds one database: the synthetic T/T1 pair of §V-B.1 via
// datagen.BuildSynthetic and, for the analytic workload, the integer table
// tb(k, v, w) clustered on k with an index on v. Everything here is what
// setup_s times.
func setupEngine(seed int64, poolPages int, withTB bool) (*pagefeedback.Engine, error) {
	cfg := pagefeedback.DefaultConfig()
	cfg.PoolPages = poolPages
	eng := pagefeedback.New(cfg)
	if _, err := datagen.BuildSynthetic(eng, rows, seed); err != nil {
		return nil, fmt.Errorf("build synthetic: %w", err)
	}
	if !withTB {
		return eng, nil
	}
	schema := pagefeedback.NewSchema(
		pagefeedback.Column{Name: "k", Kind: pagefeedback.KindInt},
		pagefeedback.Column{Name: "v", Kind: pagefeedback.KindInt},
		pagefeedback.Column{Name: "w", Kind: pagefeedback.KindInt},
	)
	if _, err := eng.CreateClusteredTable("tb", schema, []string{"k"}); err != nil {
		return nil, err
	}
	data := make([]pagefeedback.Row, rows)
	for i := range data {
		data[i] = pagefeedback.Row{
			pagefeedback.Int64(int64(i)),
			pagefeedback.Int64(tbV(i)),
			pagefeedback.Int64(tbW(i)),
		}
	}
	if err := eng.Load("tb", data); err != nil {
		return nil, err
	}
	if _, err := eng.CreateIndex("ix_tb_v", "tb", "v"); err != nil {
		return nil, err
	}
	if err := eng.Analyze("tb"); err != nil {
		return nil, err
	}
	return eng, nil
}

func tbV(i int) int64 { return int64(i * 13 % rows) }
func tbW(i int) int64 { return int64(i % tbGroups) }

// refTable holds the integer columns c1..c5 of one synthetic table as the
// generator produced them, row i at index i, plus each column sorted for
// range counts.
type refTable struct {
	cols   [5][]int64
	sorted [5][]int64
}

// refData is the reference the results are checked against. It is
// regenerated from the seed with the documented construction of
// datagen.BuildSynthetic (c1 = c2 = row number; c3, c4, c5 permutations with
// shuffle windows n/200, n/40 and n; per-table seeds seed + 7919·i), never
// read back through the engine.
type refData struct {
	t, t1 refTable
}

func newRefData(seed int64) *refData {
	d := &refData{}
	for ti, tab := range []*refTable{&d.t, &d.t1} {
		rng := rand.New(rand.NewSource(seed + int64(ti)*7919))
		c3 := permWithDisorder(rows, rows/200, rng)
		c4 := permWithDisorder(rows, rows/40, rng)
		c5 := permWithDisorder(rows, rows, rng)
		for c := range tab.cols {
			tab.cols[c] = make([]int64, rows)
		}
		for i := 0; i < rows; i++ {
			tab.cols[0][i] = int64(i)
			tab.cols[1][i] = int64(i)
			tab.cols[2][i] = int64(c3[i])
			tab.cols[3][i] = int64(c4[i])
			tab.cols[4][i] = int64(c5[i])
		}
		for c := range tab.cols {
			tab.sorted[c] = append([]int64(nil), tab.cols[c]...)
			sort.Slice(tab.sorted[c], func(a, b int) bool { return tab.sorted[c][a] < tab.sorted[c][b] })
		}
	}
	return d
}

// permWithDisorder is the generator's permutation: element i's value stays
// within about window positions of i (0 = identity, >= n = uniform shuffle).
func permWithDisorder(n, window int, rng *rand.Rand) []int {
	if window <= 0 {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	if window >= n {
		return rng.Perm(n)
	}
	type kv struct {
		pos int
		key float64
	}
	keys := make([]kv, n)
	for i := range keys {
		keys[i] = kv{pos: i, key: float64(i) + rng.Float64()*float64(window)}
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].key < keys[b].key })
	out := make([]int, n)
	for rank, k := range keys {
		out[k.pos] = rank
	}
	return out
}

// col maps "c1".."c5" to its column index.
func col(name string) int { return int(name[1] - '1') }

// countBetween counts rows with lo <= c <= hi.
func (t *refTable) countBetween(c int, lo, hi int64) int64 {
	s := t.sorted[c]
	a := sort.Search(len(s), func(i int) bool { return s[i] >= lo })
	b := sort.Search(len(s), func(i int) bool { return s[i] > hi })
	return int64(b - a)
}

// countLess counts rows with c < v.
func (t *refTable) countLess(c int, v int64) int64 {
	return t.countBetween(c, -1<<62, v-1)
}

// joinCount is COUNT(*) of t1 ⋈ t on t1.<jc> = t.<jc> over the t1 rows with
// t1.<fc> < v.
func (d *refData) joinCount(fc int, v int64, jc int) int64 {
	var n int64
	for i, x := range d.t1.cols[fc] {
		if x < v {
			y := d.t1.cols[jc][i]
			n += d.t.countBetween(jc, y, y)
		}
	}
	return n
}
