package pagefeedback

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/xml"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// execCorpusPath is the golden record of everything a query run makes
// observable, taken from the batch executor before the row-at-a-time path
// was removed. Every executor refactor must reproduce it byte for byte.
var execCorpusPath = filepath.Join("testdata", "exec_corpus.golden")

// limitFixtures put a LIMIT over every operator kind: a LIMIT above an
// operator must cost what it cost when the row path pulled one row at a
// time — rows, rows touched, reads and per-operator row counts all pinned.
var limitFixtures = []string{
	"SELECT c5 FROM t WHERE c5 < 300 LIMIT 4",                                 // CoveringScan
	"SELECT t.c1, u.c1 FROM t, u WHERE u.c1 < 5 AND u.fk = t.c5 LIMIT 2",      // INLJoin
	"SELECT t.c1, u.c1 FROM t, u WHERE u.c1 = t.c1 LIMIT 3",                   // MergeJoin
	"SELECT c1, c5 FROM t WHERE c5 < 300 ORDER BY c5 LIMIT 3",                 // Sort
	"SELECT t.c1, u.c1 FROM t, u WHERE u.c1 < 50 AND u.fk = t.c5 LIMIT 2",     // HashJoin
	"SELECT t.c1, u.c1 FROM t, u WHERE u.c1 < 50 AND u.fk = t.c5 LIMIT 40",    // HashJoin
	"SELECT c1, c2 FROM t WHERE c1 < 5000 LIMIT 37",                           // RangeScan
	"SELECT c2 FROM t WHERE c5 < 40 LIMIT 3",                                  // Scan
	"SELECT c2, COUNT(*) FROM t WHERE c1 < 3000 GROUP BY c2 LIMIT 5",          // GroupAggregate
	"SELECT c1 FROM t WHERE c2 < 400 AND c5 < 400 LIMIT 3",                    // IndexIntersect (injected)
	"SELECT c2 FROM t WHERE c5 < 3 LIMIT 2",                                   // IndexSeek
	"SELECT c5 FROM t WHERE c5 < 3000 LIMIT 1500",                             // CoveringScan, > one batch
	"SELECT t.c1, u.c1 FROM t, u WHERE u.c1 < 400 AND u.c1 = t.c1 LIMIT 1100", // MergeJoin, > one batch
}

// shapeFixtures run the ported operators to completion, monitored.
var shapeFixtures = []string{
	"SELECT c5 FROM t WHERE c5 < 3000",
	"SELECT t.c1, u.c1 FROM t, u WHERE u.c1 = t.c1",
	"SELECT COUNT(padding) FROM t, u WHERE u.c1 < 400 AND u.c1 = t.c1",
	"SELECT t.c1, u.c1 FROM t, u WHERE u.c1 < 40 AND u.fk = t.c5",
	"SELECT c1, c5 FROM t WHERE c5 < 2500 ORDER BY c5",
	"SELECT c1, c2 FROM t WHERE c1 < 3000 ORDER BY c2 DESC",
	"SELECT c1 FROM t WHERE c2 < 400 AND c5 < 400",
	"SELECT COUNT(padding) FROM t WHERE c2 < 400 AND c5 < 400",
}

// fkJoinFixtures run on an engine where u.fk is indexed too, so joins can
// build from an index seek and probe an indexed inner.
var fkJoinFixtures = []string{
	"SELECT t.c1, u.c1 FROM t, u WHERE t.c5 < 5 AND t.c5 = u.fk",
	"SELECT t.c1, u.c1 FROM t, u WHERE t.c5 < 20 AND t.c5 = u.fk LIMIT 2",
	"SELECT t.c1, u.c1 FROM t, u WHERE t.c5 < 3 AND t.c2 = u.fk",
	"SELECT t.c1, u.c1 FROM t, u WHERE u.c1 < 100 AND t.c5 = u.fk",
	"SELECT c1, c2 FROM t WHERE c5 < 5 ORDER BY c2 LIMIT 2",
}

// intersectPred is the predicate whose DPC the corpus injects so that the
// optimizer picks an index intersection for it.
const intersectPred = "SELECT c1 FROM t WHERE c2 < 400 AND c5 < 400"

// renderExecCorpus runs every corpus section on fresh engines and renders
// the outcome of each query.
func renderExecCorpus(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	section := func(name string, n int, queries []string, optss []*RunOptions, refeed bool) {
		eng := buildVecDB(t, n)
		if name == "fkjoin" {
			if _, err := eng.CreateIndex("ix_fk", "u", "fk"); err != nil {
				t.Fatal(err)
			}
			if err := eng.Analyze("u"); err != nil {
				t.Fatal(err)
			}
		}
		pq, err := eng.ParseQuery(intersectPred)
		if err != nil {
			t.Fatal(err)
		}
		eng.Optimizer().InjectDPC("t", pq.Pred, 1)
		for _, q := range queries {
			for _, opts := range optss {
				fmt.Fprintf(&b, "== %s %s: %s\n", name, optsLabel(opts), q)
				res, err := eng.Query(q, opts)
				b.WriteString(renderCorpusOutcome(t, res, err))
				if refeed && err == nil {
					eng.ApplyFeedback(res)
				}
			}
		}
		if refeed {
			var buf bytes.Buffer
			if err := eng.ExportFeedback(&buf); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "== %s export: %s\n", name, digest(buf.Bytes()))
		}
	}
	mon := &RunOptions{MonitorAll: true}
	section("parity", 12000, vecParityQueries, []*RunOptions{mon}, true)
	section("raw", 12000, vecParityQueries, []*RunOptions{nil}, false)
	for _, g := range analyzeGoldens {
		opts := g.opts
		section("analyze", 8000, []string{g.query}, []*RunOptions{&opts}, false)
	}
	section("limit", 8000, limitFixtures, []*RunOptions{nil, mon}, false)
	section("shapes", 8000, shapeFixtures, []*RunOptions{mon, nil}, true)
	section("fkjoin", 8000, fkJoinFixtures, []*RunOptions{mon, nil}, true)
	return b.String()
}

func optsLabel(o *RunOptions) string {
	if o == nil {
		return "default"
	}
	s := "opts"
	if o.MonitorAll {
		s += "+monitor"
	}
	if o.ShedLevel > 0 {
		s += fmt.Sprintf("+shed%d", o.ShedLevel)
	}
	return s
}

// renderCorpusOutcome renders one run: the error, or the row count and
// digest, the DPC feedback, and the statistics document with the fields
// that are not part of the executor's contract zeroed — wall-clock,
// queueing, pool contention, prefetch, and the batch-shape counters.
func renderCorpusOutcome(t *testing.T, res *Result, err error) string {
	t.Helper()
	if err != nil {
		return "err: " + err.Error() + "\n"
	}
	rows := renderRows(res)
	st := res.Stats
	st.Runtime = deterministicRuntime(st.Runtime)
	doc, xerr := xml.Marshal(st)
	if xerr != nil {
		t.Fatal(xerr)
	}
	return fmt.Sprintf("rows: %d %s\ndpc: %s\nstats: %s\n",
		len(rows), digest([]byte(strings.Join(rows, "\n"))),
		strings.Join(renderDPCResults(res), "; "), doc)
}

// digest is a short content hash for bulky byte streams (rows, exports).
func digest(p []byte) string {
	sum := sha256.Sum256(p)
	return fmt.Sprintf("%d:%s", len(p), hex.EncodeToString(sum[:8]))
}

// compareGolden reports the first line where got departs from the golden
// file, with the line number, so a drift names the query that moved.
func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	head := ""
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if strings.HasPrefix(w, "== ") {
			head = w
		}
		if g != w {
			t.Fatalf("%s drifted at line %d (under %q)\n got: %s\nwant: %s", path, i+1, head, g, w)
		}
	}
}

// TestExecCorpus replays the parity queries, the EXPLAIN ANALYZE fixtures,
// the LIMIT fixtures and the ported-operator shapes, and requires every
// observable — rows, DPC feedback, the statistics document and the
// exported feedback — to match the golden corpus byte for byte.
func TestExecCorpus(t *testing.T) {
	compareGolden(t, execCorpusPath, renderExecCorpus(t))
}

// TestExecCorpusCoversLimitOverEveryOperator pins the corpus's reach: the
// LIMIT section must contain a plan with each operator whose batches are
// cut short by a limit above it.
func TestExecCorpusCoversLimitOverEveryOperator(t *testing.T) {
	golden, err := os.ReadFile(execCorpusPath)
	if err != nil {
		t.Fatal(err)
	}
	var limit strings.Builder
	for _, line := range strings.Split(string(golden), "\n") {
		if strings.HasPrefix(line, "stats: ") && strings.Contains(line, `label="Limit(`) {
			limit.WriteString(line)
		}
	}
	for _, op := range []string{"Sort", "MergeJoin", "INLJoin(", "CoveringScan(", "IndexIntersect(", "HashJoin", "IndexSeek("} {
		if !strings.Contains(limit.String(), `label="`+op) {
			t.Errorf("no LIMIT plan in the corpus runs %s", op)
		}
	}
}
