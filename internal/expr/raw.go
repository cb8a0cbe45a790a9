package expr

import (
	"encoding/binary"

	"pagefeedback/internal/tuple"
)

// Raw predicate evaluation: the leading fixed-width columns of a schema sit
// at known byte offsets of the encoded row (column i at 8*i, up to the first
// variable-width column), so a predicate over them can be judged against
// the page bytes directly — before any value is decoded. Scan operators,
// monitored or not, use this for late materialization: rows the predicate
// rejects are never decoded at all. Which rows are judged this way depends
// only on the schema and the predicate.

// rawAtomFn reports whether one atom accepts a well-formed encoded row.
type rawAtomFn func(enc []byte) bool

// RawCompiled evaluates a bound Conjunction against the encoded bytes of a
// row. The zero value is invalid; obtain one from CompileRaw and check OK.
// Evaluation is equivalent to the decoded evaluators on every well-formed
// row: raw numeric comparison and Value comparison agree on every Int and
// Date.
type RawCompiled struct {
	fns    []rawAtomFn
	schema *tuple.Schema
	size   int // the schema's fixed row size, -1 with a variable-width tail
}

// OK reports whether the compilation produced a usable evaluator.
func (c RawCompiled) OK() bool { return c.fns != nil }

// Eval evaluates the conjunction with short-circuiting. A malformed row is
// accepted unexamined: it must reach the decoding path, which reports the
// corruption — raw evaluation never masks it.
func (c RawCompiled) Eval(enc []byte) bool { return c.FirstFail(enc) < 0 }

// FirstFail returns the index of the first atom the encoded row fails, or
// -1 when every atom accepts it — Compiled.FirstFail on the decoded row, so
// prefix monitors observe exactly what they would after a decode. A
// malformed row returns -1 unexamined, for the reason given at Eval. For an
// all-fixed-width schema well-formedness is one length check; otherwise it
// is tuple.Valid's allocation-free walk of the column lengths.
func (c RawCompiled) FirstFail(enc []byte) int {
	// Checked inline: a value-receiver helper would copy c through the
	// stack on every row, which doubled the cost of a one-atom predicate.
	if c.size >= 0 {
		if len(enc) != c.size {
			return -1
		}
	} else if !tuple.Valid(c.schema, enc) {
		return -1
	}
	for i, fn := range c.fns {
		if !fn(enc) {
			return i
		}
	}
	return -1
}

// CompileRaw specializes every atom of a bound conjunction to read the
// encoded row directly. Any schema qualifies, provided every atom compares
// a numeric column of the schema's leading fixed-width run with numeric
// constants. It returns a RawCompiled with OK()==false when the predicate
// is empty or an atom cannot be specialized; callers then stay on the
// decoded evaluators.
func CompileRaw(c Conjunction, s *tuple.Schema) RawCompiled {
	if len(c.Atoms) == 0 {
		return RawCompiled{}
	}
	fns := make([]rawAtomFn, len(c.Atoms))
	for i, a := range c.Atoms {
		if !a.bound || a.ord >= s.FixedPrefix() {
			return RawCompiled{}
		}
		fn := compileRawAtom(a)
		if fn == nil {
			return RawCompiled{}
		}
		fns[i] = fn
	}
	return RawCompiled{fns: fns, schema: s, size: s.FixedSize()}
}

// rawInt reads the fixed-width column at byte offset off.
func rawInt(enc []byte, off int) int64 {
	return int64(binary.LittleEndian.Uint64(enc[off:]))
}

// compileRawAtom specializes a bound atom over a column of the leading
// fixed-width run, or returns nil when a constant is not numeric.
func compileRawAtom(a Atom) rawAtomFn {
	off := a.ord * 8
	switch a.Op {
	case Eq, Ne, Lt, Le, Gt, Ge:
		if !numericKind(a.Val.Kind) {
			return nil
		}
		c := a.Val.Int
		switch a.Op {
		case Eq:
			return func(enc []byte) bool { return rawInt(enc, off) == c }
		case Ne:
			return func(enc []byte) bool { return rawInt(enc, off) != c }
		case Lt:
			return func(enc []byte) bool { return rawInt(enc, off) < c }
		case Le:
			return func(enc []byte) bool { return rawInt(enc, off) <= c }
		case Gt:
			return func(enc []byte) bool { return rawInt(enc, off) > c }
		default:
			return func(enc []byte) bool { return rawInt(enc, off) >= c }
		}
	case Between:
		if !numericKind(a.Val.Kind) || !numericKind(a.Val2.Kind) {
			return nil
		}
		lo, hi := a.Val.Int, a.Val2.Int
		return func(enc []byte) bool {
			v := rawInt(enc, off)
			return v >= lo && v <= hi
		}
	case In:
		if len(a.List) == 0 {
			return func([]byte) bool { return false }
		}
		for _, v := range a.List {
			if !numericKind(v.Kind) {
				return nil
			}
		}
		if len(a.List) > 8 {
			set := make(map[int64]struct{}, len(a.List))
			for _, v := range a.List {
				set[v.Int] = struct{}{}
			}
			return func(enc []byte) bool {
				_, ok := set[rawInt(enc, off)]
				return ok
			}
		}
		vals := make([]int64, len(a.List))
		for i, v := range a.List {
			vals[i] = v.Int
		}
		return func(enc []byte) bool {
			v := rawInt(enc, off)
			for _, c := range vals {
				if v == c {
					return true
				}
			}
			return false
		}
	default:
		return nil
	}
}
