package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/xml"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"pagefeedback"
)

// chaosCorpusPath is the golden record of the fault-schedule sweep, taken
// from the batch executor before the row-at-a-time path was removed.
var chaosCorpusPath = filepath.Join("testdata", "chaos_corpus.golden")

// timingDependent reports whether a schedule's outcome depends on wall-clock
// speed: a deadline or an overhead budget long enough that a run may or may
// not beat it. Such schedules stay in TestChaosSweep's invariant checks but
// cannot be pinned to a golden outcome.
func timingDependent(s Schedule) bool {
	return s.Timeout > time.Nanosecond || s.OverheadBudget > time.Nanosecond
}

// measuredOverhead matches the wall-clock figure an overhead-shed reason
// quotes; it is the one timing value left in a deterministic outcome.
var measuredOverhead = regexp.MustCompile(`observation overhead [0-9.]+[a-zµ]+ exceeded`)

// scheduleID names a schedule by its fault fields.
func scheduleID(s Schedule) string {
	return fmt.Sprintf("%s{q%d read=%d trans=%d@%d cancel=%d to=%v mem=%d shed=%d ob=%v par=%d warm=%v}",
		s.Name, s.Query, s.FailReadAfter, s.TransientLen, s.TransientAfter,
		s.CancelAtRead, s.Timeout, s.MemBudget, s.ShedLevel, s.OverheadBudget,
		s.Parallelism, s.WarmCache)
}

func corpusDigest(p []byte) string {
	sum := sha256.Sum256(p)
	return fmt.Sprintf("%d:%s", len(p), hex.EncodeToString(sum[:8]))
}

// renderOutcome renders one schedule's outcome: the error, or the rows, the
// DPC feedback, and the statistics document minus the runtime fields that
// are not part of the executor's contract.
func renderOutcome(t *testing.T, out Outcome) string {
	t.Helper()
	if out.Err != nil {
		return "err: " + out.Err.Error() + "\n"
	}
	st := out.Res.Stats
	st.Runtime = contractRuntime(st.Runtime)
	doc, err := xml.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	doc = measuredOverhead.ReplaceAll(doc, []byte("observation overhead <measured> exceeded"))
	return fmt.Sprintf("rows: %d %s\ndpc: %s\nstats: %s\n",
		len(out.Rows), corpusDigest([]byte(strings.Join(out.Rows, "\n"))),
		strings.ReplaceAll(renderDPC(out.Res), "\n", "; "), doc)
}

// renderChaosCorpus runs the serial sweep with feedback refed every 40
// schedules, exporting the feedback state after each round, then the
// fault-free schedules at degree 4 (rows and feedback only: parallel reads
// interleave, so I/O counters are not reproducible there).
func renderChaosCorpus(t *testing.T) string {
	t.Helper()
	env := chaosEnv(t, pagefeedback.DefaultConfig(), 1500)
	reads := make([]int64, len(env.Queries))
	for q := range env.Queries {
		reads[q] = env.CountReads(q)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "reads: %v\n", reads)
	for i, s := range GenerateSchedules(reads) {
		if !timingDependent(s) {
			out := env.Run(s)
			fmt.Fprintf(&b, "== %d %s\n%s", i, scheduleID(s), renderOutcome(t, out))
			if err := env.Check(s, out); err != nil {
				t.Error(err)
			}
		}
		if i%40 == 39 {
			for q := range env.Queries {
				out := env.Run(Schedule{Name: "refeed", Query: q})
				if out.Err != nil {
					t.Fatalf("refeed failed: %v", out.Err)
				}
				env.Eng.ApplyFeedback(out.Res)
			}
			fmt.Fprintf(&b, "== export after %d: %s\n", i, corpusDigest(exportFeedback(t, env.Eng)))
		}
	}
	for q := range env.Queries {
		s := Schedule{Name: "par", Query: q, Parallelism: 4}
		out := env.Run(s)
		if out.Err != nil {
			t.Fatalf("%s: %v", s, out.Err)
		}
		fmt.Fprintf(&b, "== %s\nrows: %d %s\ndpc: %s\n", scheduleID(s), len(out.Rows),
			corpusDigest([]byte(strings.Join(out.Rows, "\n"))),
			strings.ReplaceAll(renderDPC(out.Res), "\n", "; "))
	}
	return b.String()
}

// TestChaosCorpus requires the serial fault-schedule sweep and the parallel
// fault-free runs to reproduce the golden corpus byte for byte: the same
// error for every failing schedule; the same rows, DPC feedback and
// statistics document for every passing one; and the same exported
// feedback after every refeed round. A drift means the executor changed
// what it reads, when it reads it, or what it reports.
func TestChaosCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos corpus replays the full sweep")
	}
	got := renderChaosCorpus(t)
	want, err := os.ReadFile(chaosCorpusPath)
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
			t.Fatalf("%s drifted at line %d (under %q)\n got: %s\nwant: %s", chaosCorpusPath, i+1, head, g, w)
		}
	}
}
