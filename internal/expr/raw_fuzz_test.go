package expr

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"pagefeedback/internal/tuple"
)

// rawFuzzLayouts are the schemas FuzzEvalRaw draws from: all fixed-width, a
// VARCHAR tail after the integers, a VARCHAR between them, and a VARCHAR
// first. lead is the length of each schema's leading fixed-width run — the
// columns a raw atom may read.
var rawFuzzLayouts = []struct {
	schema *tuple.Schema
	lead   int
}{
	{tuple.NewSchema(
		tuple.Column{Name: "a", Kind: tuple.KindInt},
		tuple.Column{Name: "b", Kind: tuple.KindInt},
		tuple.Column{Name: "d", Kind: tuple.KindDate},
	), 3},
	{tuple.NewSchema(
		tuple.Column{Name: "a", Kind: tuple.KindInt},
		tuple.Column{Name: "b", Kind: tuple.KindInt},
		tuple.Column{Name: "d", Kind: tuple.KindDate},
		tuple.Column{Name: "s", Kind: tuple.KindString},
	), 3},
	{tuple.NewSchema(
		tuple.Column{Name: "a", Kind: tuple.KindInt},
		tuple.Column{Name: "s", Kind: tuple.KindString},
		tuple.Column{Name: "b", Kind: tuple.KindInt},
		tuple.Column{Name: "d", Kind: tuple.KindDate},
	), 1},
	{tuple.NewSchema(
		tuple.Column{Name: "s", Kind: tuple.KindString},
		tuple.Column{Name: "a", Kind: tuple.KindInt},
		tuple.Column{Name: "b", Kind: tuple.KindInt},
		tuple.Column{Name: "d", Kind: tuple.KindDate},
	), 0},
}

// FuzzEvalRaw drives RawCompiled with randomized predicates over schemas
// with and without variable-width columns, using the decoded evaluators as
// the oracle. This is the contract the scan's late-materializing path rests
// on — a raw disagreement would silently drop or resurrect rows, or feed a
// prefix monitor the wrong first failing atom:
//   - the predicate compiles raw exactly when every atom reads a numeric
//     column of the leading fixed-width run;
//   - on every well-formed row, Eval and FirstFail agree with Compiled and
//     with the interpreted Conjunction.Eval;
//   - a truncated row, one with an over-long string length, and one with a
//     trailing byte are always accepted unexamined (FirstFail -1), so they
//     reach the decoder that reports them.
func FuzzEvalRaw(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(2), uint8(0))
	f.Add(int64(7), uint8(64), uint8(4), uint8(1))
	f.Add(int64(42), uint8(1), uint8(1), uint8(2))
	f.Add(int64(-3), uint8(32), uint8(3), uint8(3))
	f.Add(int64(11), uint8(48), uint8(2), uint8(1))

	f.Fuzz(func(t *testing.T, seed int64, nRows, nAtoms, layout uint8) {
		lay := rawFuzzLayouts[int(layout)%len(rawFuzzLayouts)]
		schema := lay.schema
		rng := rand.New(rand.NewSource(seed))
		val := func() tuple.Value { return tuple.Int64(rng.Int63n(7) - 3) }
		str := func() tuple.Value { return tuple.Str("xyz"[:rng.Intn(4)]) }
		rows := make([]tuple.Row, int(nRows)%65)
		for i := range rows {
			row := make(tuple.Row, schema.NumColumns())
			for c := range row {
				switch schema.Column(c).Kind {
				case tuple.KindString:
					row[c] = str()
				case tuple.KindDate:
					row[c] = tuple.Value{Kind: tuple.KindDate, Int: rng.Int63n(7)}
				default:
					row[c] = val()
				}
			}
			rows[i] = row
		}

		var cols []string
		for _, c := range schema.Columns() {
			cols = append(cols, c.Name)
		}
		atoms := make([]Atom, 1+int(nAtoms)%5)
		wantRaw := true
		for i := range atoms {
			col := cols[rng.Intn(len(cols))]
			var a Atom
			switch {
			case col == "s":
				a = NewAtom(col, CmpOp(rng.Intn(6)), str())
			case rng.Intn(8) == 6:
				a = NewBetween(col, val(), val())
			case rng.Intn(8) == 7:
				list := make([]tuple.Value, rng.Intn(12))
				for j := range list {
					list[j] = val()
				}
				a = NewIn(col, list...)
			default:
				a = NewAtom(col, CmpOp(rng.Intn(6)), val())
			}
			bound, err := a.Bind(schema)
			if err != nil {
				t.Fatalf("Bind(%s): %v", a, err)
			}
			if bound.Ordinal() >= lay.lead {
				wantRaw = false
			}
			atoms[i] = bound
		}
		pred := And(atoms...)
		rc := CompileRaw(pred, schema)
		if rc.OK() != wantRaw {
			t.Fatalf("CompileRaw(%s) over %s: OK = %v, want %v (leading fixed-width run %d)",
				pred, schema, rc.OK(), wantRaw, lay.lead)
		}
		if !rc.OK() {
			return
		}
		cc := Compile(pred)

		var enc []byte
		for _, row := range rows {
			var err error
			enc, err = tuple.Encode(enc[:0], schema, row)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			if got, want := rc.Eval(enc), pred.Eval(row); got != want {
				t.Fatalf("raw Eval = %v, decoded Eval = %v for row %v (pred %s)",
					got, want, row, pred)
			}
			if got, want := rc.FirstFail(enc), cc.FirstFail(row); got != want {
				t.Fatalf("raw FirstFail = %d, compiled FirstFail = %d for row %v (pred %s)",
					got, want, row, pred)
			}
			for _, bad := range malformed(schema, enc) {
				if _, err := tuple.Decode(schema, bad.enc); err == nil {
					t.Fatalf("%s encoding %x of row %v decodes cleanly", bad.what, bad.enc, row)
				}
				if rc.FirstFail(bad.enc) != -1 || !rc.Eval(bad.enc) {
					t.Fatalf("%s encoding of row %v was judged raw instead of passed through to decoding (pred %s)",
						bad.what, row, pred)
				}
			}
		}
	})
}

// badEnc is a corrupt encoding and the kind of corruption.
type badEnc struct {
	what string
	enc  []byte
}

// malformed derives corrupt variants of the well-formed encoding enc: cut
// short by one byte, one trailing byte, and — when the schema has a string
// column — the first string's length claiming one byte more than it holds.
func malformed(schema *tuple.Schema, enc []byte) []badEnc {
	out := []badEnc{{"trailing-byte", append(append([]byte(nil), enc...), 0)}}
	if len(enc) > 0 {
		out = append(out, badEnc{"truncated", enc[: len(enc)-1 : len(enc)-1]})
	}
	off := 0
	for c := 0; c < schema.NumColumns(); c++ {
		if schema.Column(c).Kind != tuple.KindString {
			off += 8
			continue
		}
		long := append([]byte(nil), enc...)
		binary.LittleEndian.PutUint32(long[off:], binary.LittleEndian.Uint32(long[off:])+1)
		return append(out, badEnc{"over-long", long})
	}
	return out
}
