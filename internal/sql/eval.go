package sql

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"regexp"
	"slices"
	"strings"

	"repro/internal/bat"
	"repro/internal/exec"
	"repro/internal/rel"
	"repro/internal/store"
)

// source is a row source during execution: a working relation whose
// physical column names are internal ("#0", "#1", ...) plus the symbol
// table that maps user-visible (qualifier, name) pairs to columns.
type source struct {
	rel  *rel.Relation
	syms []sym

	// stored is the open segment reader when the source is a persisted
	// base table; the streaming scan uses its per-segment zone maps to
	// skip row ranges that cannot satisfy pushed-down predicates. Nil
	// for derived or non-persisted sources.
	stored *store.Reader
}

type sym struct {
	qual string
	name string
}

// newSource wraps a relation whose schema names are user-visible under a
// qualifier, renaming columns to internal names.
func newSource(r *rel.Relation, qual string) *source {
	schema := make(rel.Schema, len(r.Schema))
	syms := make([]sym, len(r.Schema))
	for k, a := range r.Schema {
		schema[k] = rel.Attr{Name: internalName(k), Type: a.Type}
		syms[k] = sym{qual: qual, name: a.Name}
	}
	return &source{
		rel:  &rel.Relation{Name: r.Name, Schema: schema, Cols: r.Cols},
		syms: syms,
	}
}

func internalName(k int) string { return fmt.Sprintf("#%d", k) }

// resolve finds the column index for a reference; unqualified names must be
// unambiguous among visible symbols.
func (s *source) resolve(qual, name string) (int, error) {
	return resolveSym(s.syms, qual, name)
}

func resolveSym(syms []sym, qual, name string) (int, error) {
	found := -1
	for k, sy := range syms {
		if sy.name != name {
			continue
		}
		if qual != "" && sy.qual != qual {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("sql: ambiguous column %q", refName(qual, name))
		}
		found = k
	}
	if found < 0 {
		return 0, fmt.Errorf("sql: unknown column %q", refName(qual, name))
	}
	return found, nil
}

func refName(qual, name string) string {
	if qual == "" {
		return name
	}
	return qual + "." + name
}

// ErrDivisionByZero is returned by a statement whose integer % meets a
// zero divisor on a row it evaluates.
var ErrDivisionByZero = errors.New("sql: division by zero")

// The expression evaluator works a morsel at a time, in the column-at-
// a-time style of the paper's BAT algebra. An expression compiles once
// against a frame — the column symbols of the source it reads — into a
// tree of typed kernels; the frame is then bound to data (a whole
// relation, or one streamed batch after another) and the tree evaluates
// row ranges [lo, hi) of it into typed vectors:
//
//   - vals returns one value per position of the range (position p is
//     row lo+p). A column reference returns a zero-copy view of the
//     bound column; every other node writes a scratch buffer of its own,
//     valid until the node's next call.
//   - keep narrows a selection vector — ascending positions of the range
//     — to the positions where the expression is truthy.
//
// Both take the selection the caller needs (nil for every position)
// and compute nothing outside it: vals leaves unselected positions
// undefined. That is what keeps short-circuit semantics: AND evaluates
// its right side only on the positions its left side kept, OR only on
// the ones it rejected, so `b <> 0 AND a % b = 1` never divides by zero.

// vec holds one typed result vector; the field matching the
// expression's type is set.
type vec struct {
	f []float64
	i []int64
	s []string
}

// expr is a compiled expression: fn is its value kernel and pred (set
// on predicate nodes) its native selection kernel. A literal (lit) has
// neither: its value konst is broadcast into bcast, and the compiler
// folds it into casts and negations.
type expr struct {
	typ   bat.Type
	lit   bool
	konst bat.Value
	bcast vec
	fn    func(lo, hi int, sel []int) (vec, error)
	pred  func(lo, hi int, sel, out []int) ([]int, error)
}

// vals returns the expression's values over rows [lo, hi) at the
// positions of sel (nil for all); other positions are undefined.
func (e *expr) vals(lo, hi int, sel []int) (vec, error) {
	if !e.lit {
		return e.fn(lo, hi, sel)
	}
	n := hi - lo
	switch e.typ {
	case bat.Float:
		return vec{f: broadcast(&e.bcast.f, e.konst.F, n)}, nil
	case bat.Int:
		return vec{i: broadcast(&e.bcast.i, e.konst.I, n)}, nil
	}
	return vec{s: broadcast(&e.bcast.s, e.konst.S, n)}, nil
}

// broadcast returns n copies of v, refilling *buf only when it is too
// short.
func broadcast[T any](buf *[]T, v T, n int) []T {
	if len(*buf) < n {
		*buf = make([]T, n)
		for k := range *buf {
			(*buf)[k] = v
		}
	}
	return (*buf)[:n]
}

// keep writes the positions of sel (nil for all of [lo, hi)) on which
// the expression is truthy to out, which may alias sel, and returns
// them. Value nodes keep non-zero numbers (NaN included) and non-empty
// strings.
func (e *expr) keep(lo, hi int, sel, out []int) ([]int, error) {
	if e.pred != nil {
		return e.pred(lo, hi, sel, out)
	}
	v, err := e.vals(lo, hi, sel)
	if err != nil {
		return nil, err
	}
	if sel == nil {
		sel = allRows(hi - lo)
	}
	out = out[:0]
	switch e.typ {
	case bat.Float:
		for _, p := range sel {
			if v.f[p] != 0 {
				out = append(out, p)
			}
		}
	case bat.Int:
		for _, p := range sel {
			if v.i[p] != 0 {
				out = append(out, p)
			}
		}
	default:
		for _, p := range sel {
			if v.s[p] != "" {
				out = append(out, p)
			}
		}
	}
	return out, nil
}

// frame is the column binding a set of expressions compiles against:
// the source's symbols and types at compile time, typed column slices
// after bindRel or bindBatch. Only columns some expression references
// are bound.
type frame struct {
	noCols bool // constant expressions only (INSERT ... VALUES)
	syms   []sym
	types  []bat.Type
	used   []int
	f      [][]float64
	i      [][]int64
	s      [][]string
}

// newFrame returns a frame over the symbols and types of syms/types.
func newFrame(syms []sym, types []bat.Type) *frame {
	return &frame{
		syms:  syms,
		types: types,
		f:     make([][]float64, len(syms)),
		i:     make([][]int64, len(syms)),
		s:     make([][]string, len(syms)),
	}
}

// bindRel points the frame's referenced columns at a relation with the
// frame's schema. Sparse float columns densify (as BAT.Floats does).
func (fr *frame) bindRel(r *rel.Relation) {
	for _, k := range fr.used {
		col := r.Cols[k]
		switch fr.types[k] {
		case bat.Float:
			fr.f[k], _ = col.Floats()
		case bat.Int:
			fr.i[k] = col.Vector().Ints()
		default:
			fr.s[k] = col.Vector().Strings()
		}
	}
}

// bindBatch points the frame's referenced columns at one morsel whose
// columns follow the frame's schema.
func (fr *frame) bindBatch(b *bat.Batch) {
	for _, k := range fr.used {
		v := b.Col(k)
		switch fr.types[k] {
		case bat.Float:
			fr.f[k] = v.Floats()
		case bat.Int:
			fr.i[k] = v.Ints()
		default:
			fr.s[k] = v.Strings()
		}
	}
}

// constFrame compiles constant expressions; compiling against it never
// touches it, so it is shared.
var constFrame = &frame{noCols: true}

// compileExpr compiles an expression against a source and binds it to
// the source's rows. A nil source admits only constant expressions.
func compileExpr(e Expr, s *source) (*expr, error) {
	if s == nil {
		return constFrame.compile(e)
	}
	fr := frameOf(s)
	ex, err := fr.compile(e)
	if err != nil {
		return nil, err
	}
	fr.bindRel(s.rel)
	return ex, nil
}

// aggregate function names.
var aggFuncs = map[string]rel.AggFunc{
	"COUNT": rel.Count, "SUM": rel.Sum, "AVG": rel.Avg, "MIN": rel.Min, "MAX": rel.Max,
}

// compile builds the kernel tree of a scalar expression. Aggregate
// calls are rejected here; the SELECT pipeline rewrites them to column
// references before compiling.
func (fr *frame) compile(e Expr) (*expr, error) {
	switch x := e.(type) {
	case *NumberLit:
		if x.IsInt {
			return constExpr(bat.IntValue(x.Int)), nil
		}
		return constExpr(bat.FloatValue(x.Float)), nil
	case *StringLit:
		return constExpr(bat.StringValue(x.Val)), nil
	case *ColRef:
		if fr.noCols {
			return nil, fmt.Errorf("sql: column %q not allowed here", refName(x.Qualifier, x.Name))
		}
		k, err := resolveSym(fr.syms, x.Qualifier, x.Name)
		if err != nil {
			return nil, err
		}
		return fr.column(k), nil
	case *UnaryExpr:
		in, err := fr.compile(x.E)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "-":
			if in.typ == bat.String {
				return nil, fmt.Errorf("sql: unary - over string")
			}
			return negExpr(in), nil
		case "NOT":
			if in.typ == bat.String {
				return nil, fmt.Errorf("sql: NOT over string")
			}
			return notExpr(in), nil
		}
		return nil, fmt.Errorf("sql: unknown unary operator %q", x.Op)
	case *BinaryExpr:
		l, err := fr.compile(x.L)
		if err != nil {
			return nil, err
		}
		r, err := fr.compile(x.R)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "AND":
			return andExpr(l, r), nil
		case "OR":
			return orExpr(l, r), nil
		case "=", "<>", "<", "<=", ">", ">=":
			return compareExpr(x.Op, l, r)
		case "+", "-", "*", "/", "%":
			return arithExpr(x.Op, l, r)
		}
		return nil, fmt.Errorf("sql: unknown operator %q", x.Op)
	case *FuncCall:
		if _, isAgg := aggFuncs[x.Name]; isAgg {
			return nil, fmt.Errorf("sql: aggregate %s not allowed in this context", x.Name)
		}
		return fr.compileScalarFunc(x)
	case *InExpr:
		return fr.compileIn(x)
	case *BetweenExpr:
		return fr.compileBetween(x)
	case *LikeExpr:
		return fr.compileLike(x)
	}
	return nil, fmt.Errorf("sql: unsupported expression %T", e)
}

// --- node constructors ------------------------------------------------------

// valueExpr wraps a value kernel.
func valueExpr(typ bat.Type, vals func(lo, hi int, sel []int) (vec, error)) *expr {
	return &expr{typ: typ, fn: vals}
}

// predExpr wraps a predicate kernel; its value form is an Int vector of
// 1 on kept positions and 0 elsewhere in the selection.
func predExpr(keep func(lo, hi int, sel, out []int) ([]int, error)) *expr {
	var ints []int64
	var buf []int
	vals := func(lo, hi int, sel []int) (vec, error) {
		n := hi - lo
		buf = growInts(buf, n)
		kept, err := keep(lo, hi, sel, buf)
		if err != nil {
			return vec{}, err
		}
		ints = grow(ints, n)
		if sel == nil {
			clear(ints)
		} else {
			for _, p := range sel {
				ints[p] = 0
			}
		}
		for _, p := range kept {
			ints[p] = 1
		}
		return vec{i: ints}, nil
	}
	return &expr{typ: bat.Int, fn: vals, pred: keep}
}

// grow returns b resliced to n elements, reallocated when too small.
// Contents are not preserved.
func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// growInts returns an empty selection buffer with room for n positions.
func growInts(b []int, n int) []int {
	if cap(b) < n {
		return make([]int, 0, n)
	}
	return b[:0]
}

// identity is the shared read-only selection of a full morsel.
var identity = func() []int {
	s := make([]int, bat.MorselSize)
	for i := range s {
		s[i] = i
	}
	return s
}()

// allRows returns the selection of every position of an n-row range.
// Kernels only read it.
func allRows(n int) []int {
	if n <= len(identity) {
		return identity[:n]
	}
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// keepAll narrows the selection of range [lo, hi) through preds in
// order — each conjunct runs only on the rows the previous ones kept —
// using buf as the selection buffer. With no preds it returns nil
// (every row).
func keepAll(preds []*expr, lo, hi int, buf []int) ([]int, error) {
	var sel []int
	for _, p := range preds {
		out, err := p.keep(lo, hi, sel, buf)
		if err != nil {
			return nil, err
		}
		if sel = out; len(sel) == 0 {
			break
		}
	}
	return sel, nil
}

func constExpr(v bat.Value) *expr {
	return &expr{typ: v.Type, lit: true, konst: v}
}

// column returns a zero-copy reference to bound column k.
func (fr *frame) column(k int) *expr {
	if !slices.Contains(fr.used, k) {
		fr.used = append(fr.used, k)
	}
	switch fr.types[k] {
	case bat.Float:
		return valueExpr(bat.Float, func(lo, hi int, _ []int) (vec, error) {
			return vec{f: fr.f[k][lo:hi]}, nil
		})
	case bat.Int:
		return valueExpr(bat.Int, func(lo, hi int, _ []int) (vec, error) {
			return vec{i: fr.i[k][lo:hi]}, nil
		})
	}
	return valueExpr(bat.String, func(lo, hi int, _ []int) (vec, error) {
		return vec{s: fr.s[k][lo:hi]}, nil
	})
}

// toFloat converts an Int expression to Float with the exact
// float64(int) conversion; other expressions pass through.
func toFloat(in *expr) *expr {
	if in.typ != bat.Int {
		return in
	}
	if in.lit {
		return constExpr(bat.FloatValue(float64(in.konst.I)))
	}
	return floatMap(in, func(x float64) float64 { return x })
}

// floatMap applies f to a numeric expression's values as float64.
func floatMap(in *expr, f func(float64) float64) *expr {
	var buf []float64
	return valueExpr(bat.Float, func(lo, hi int, sel []int) (vec, error) {
		v, err := in.vals(lo, hi, sel)
		if err != nil {
			return vec{}, err
		}
		buf = grow(buf, hi-lo)
		if sel == nil {
			sel = allRows(hi - lo)
		}
		if in.typ == bat.Int {
			for _, p := range sel {
				buf[p] = f(float64(v.i[p]))
			}
		} else {
			for _, p := range sel {
				buf[p] = f(v.f[p])
			}
		}
		return vec{f: buf}, nil
	})
}

func negExpr(in *expr) *expr {
	if in.lit && in.typ == bat.Int {
		return constExpr(bat.IntValue(-in.konst.I))
	} else if in.lit {
		return constExpr(bat.FloatValue(-in.konst.F))
	}
	if in.typ == bat.Float {
		return floatMap(in, func(x float64) float64 { return -x })
	}
	var buf []int64
	return valueExpr(bat.Int, func(lo, hi int, sel []int) (vec, error) {
		v, err := in.vals(lo, hi, sel)
		if err != nil {
			return vec{}, err
		}
		buf = grow(buf, hi-lo)
		if sel == nil {
			sel = allRows(hi - lo)
		}
		for _, p := range sel {
			buf[p] = -v.i[p]
		}
		return vec{i: buf}, nil
	})
}

func notExpr(in *expr) *expr {
	var buf []int
	return predExpr(func(lo, hi int, sel, out []int) ([]int, error) {
		buf = growInts(buf, hi-lo)
		kept, err := in.keep(lo, hi, sel, buf)
		if err != nil {
			return nil, err
		}
		if sel == nil {
			sel = allRows(hi - lo)
		}
		return minus(sel, kept, out), nil
	})
}

// minus writes the positions of sel missing from kept (an ascending
// subsequence of sel) to out, which may alias sel.
func minus(sel, kept, out []int) []int {
	out = out[:0]
	k := 0
	for _, p := range sel {
		if k < len(kept) && kept[k] == p {
			k++
			continue
		}
		out = append(out, p)
	}
	return out
}

func andExpr(l, r *expr) *expr {
	return predExpr(func(lo, hi int, sel, out []int) ([]int, error) {
		out, err := l.keep(lo, hi, sel, out)
		if err != nil || len(out) == 0 {
			return out, err
		}
		return r.keep(lo, hi, out, out)
	})
}

func orExpr(l, r *expr) *expr {
	var lbuf, rbuf []int
	return predExpr(func(lo, hi int, sel, out []int) ([]int, error) {
		n := hi - lo
		lbuf = growInts(lbuf, n)
		lk, err := l.keep(lo, hi, sel, lbuf)
		if err != nil {
			return nil, err
		}
		if sel == nil {
			sel = allRows(n)
		}
		rk := minus(sel, lk, growInts(rbuf, n))
		rbuf = rk
		if len(rk) > 0 {
			if rk, err = r.keep(lo, hi, rk, rk); err != nil {
				return nil, err
			}
		}
		// Merge the two disjoint ascending lists.
		out = out[:0]
		a, b := 0, 0
		for a < len(lk) || b < len(rk) {
			if b == len(rk) || (a < len(lk) && lk[a] < rk[b]) {
				out = append(out, lk[a])
				a++
			} else {
				out = append(out, rk[b])
				b++
			}
		}
		return out, nil
	})
}

// cmpMask encodes which outcomes of a three-way comparison (-1, 0, +1,
// at bits 0, 1, 2) satisfy a comparison operator.
func cmpMask(op string) uint8 {
	switch op {
	case "=":
		return 0b010
	case "<>":
		return 0b101
	case "<":
		return 0b001
	case "<=":
		return 0b011
	case ">":
		return 0b100
	}
	return 0b110 // >=
}

// compareExpr compiles a comparison. Strings compare bytewise, Int with
// Int exactly, and every other numeric pair as float64 under the
// engine's total order (bat.CompareFloat: NaN equals NaN and sorts after
// every number, -0 equals +0) — the order ORDER BY, GROUP BY and join
// keys use.
func compareExpr(op string, l, r *expr) (*expr, error) {
	if (l.typ == bat.String) != (r.typ == bat.String) {
		return nil, fmt.Errorf("sql: cannot compare %v with %v", l.typ, r.typ)
	}
	mask := cmpMask(op)
	typ := l.typ
	if l.typ != r.typ {
		l, r, typ = toFloat(l), toFloat(r), bat.Float
	}
	return predExpr(func(lo, hi int, sel, out []int) ([]int, error) {
		a, b, sel, err := evalPair(l, r, lo, hi, sel)
		if err != nil {
			return nil, err
		}
		out = out[:0]
		switch typ {
		case bat.Float:
			for _, p := range sel {
				if mask>>(bat.CompareFloat(a.f[p], b.f[p])+1)&1 != 0 {
					out = append(out, p)
				}
			}
		case bat.Int:
			for _, p := range sel {
				if mask>>(cmp.Compare(a.i[p], b.i[p])+1)&1 != 0 {
					out = append(out, p)
				}
			}
		default:
			for _, p := range sel {
				if mask>>(strings.Compare(a.s[p], b.s[p])+1)&1 != 0 {
					out = append(out, p)
				}
			}
		}
		return out, nil
	}), nil
}

// compareAt is the three-way comparison of compareExpr for position p
// of two vectors of the given types, used by IN and BETWEEN.
func compareAt(a vec, at bat.Type, b vec, bt bat.Type, p int) int {
	switch {
	case at == bat.String:
		return strings.Compare(a.s[p], b.s[p])
	case at == bat.Int && bt == bat.Int:
		return cmp.Compare(a.i[p], b.i[p])
	}
	return bat.CompareFloat(numAt(a, at, p), numAt(b, bt, p))
}

func numAt(v vec, t bat.Type, p int) float64 {
	if t == bat.Int {
		return float64(v.i[p])
	}
	return v.f[p]
}

func arithExpr(op string, l, r *expr) (*expr, error) {
	if l.typ == bat.String || r.typ == bat.String {
		return nil, fmt.Errorf("sql: arithmetic over strings")
	}
	if l.typ == bat.Int && r.typ == bat.Int && op != "/" {
		var buf []int64
		return valueExpr(bat.Int, func(lo, hi int, sel []int) (vec, error) {
			a, b, sel, err := evalPair(l, r, lo, hi, sel)
			if err != nil {
				return vec{}, err
			}
			buf = grow(buf, hi-lo)
			if op != "%" {
				arith(op, buf, a.i, b.i, sel)
				return vec{i: buf}, nil
			}
			for _, p := range sel {
				if b.i[p] == 0 {
					return vec{}, ErrDivisionByZero
				}
				buf[p] = a.i[p] % b.i[p]
			}
			return vec{i: buf}, nil
		}), nil
	}
	l, r = toFloat(l), toFloat(r)
	var buf []float64
	return valueExpr(bat.Float, func(lo, hi int, sel []int) (vec, error) {
		a, b, sel, err := evalPair(l, r, lo, hi, sel)
		if err != nil {
			return vec{}, err
		}
		buf = grow(buf, hi-lo)
		if op != "%" {
			arith(op, buf, a.f, b.f, sel)
			return vec{f: buf}, nil
		}
		for _, p := range sel {
			buf[p] = math.Mod(a.f[p], b.f[p])
		}
		return vec{f: buf}, nil
	}), nil
}

// evalPair evaluates both operands of a binary kernel at sel and
// returns the selection with nil resolved to every position.
func evalPair(l, r *expr, lo, hi int, sel []int) (a, b vec, all []int, err error) {
	if a, err = l.vals(lo, hi, sel); err != nil {
		return a, b, nil, err
	}
	if b, err = r.vals(lo, hi, sel); err != nil {
		return a, b, nil, err
	}
	if sel == nil {
		sel = allRows(hi - lo)
	}
	return a, b, sel, nil
}

// arith computes dst = a op b at the selected positions for + - * and,
// on floats, /.
func arith[T int64 | float64](op string, dst, a, b []T, sel []int) {
	switch op {
	case "+":
		for _, p := range sel {
			dst[p] = a[p] + b[p]
		}
	case "-":
		for _, p := range sel {
			dst[p] = a[p] - b[p]
		}
	case "*":
		for _, p := range sel {
			dst[p] = a[p] * b[p]
		}
	case "/":
		for _, p := range sel {
			dst[p] = a[p] / b[p]
		}
	}
}

func (fr *frame) compileScalarFunc(x *FuncCall) (*expr, error) {
	unary := map[string]func(float64) float64{
		"ABS": math.Abs, "SQRT": math.Sqrt, "FLOOR": math.Floor,
		"CEIL": math.Ceil, "EXP": math.Exp, "LN": math.Log,
	}
	if f, ok := unary[x.Name]; ok {
		if len(x.Args) != 1 {
			return nil, fmt.Errorf("sql: %s takes one argument", x.Name)
		}
		in, err := fr.compile(x.Args[0])
		if err != nil {
			return nil, err
		}
		if in.typ == bat.String {
			return nil, fmt.Errorf("sql: %s over string", x.Name)
		}
		return floatMap(in, f), nil
	}
	if x.Name == "POW" || x.Name == "POWER" {
		if len(x.Args) != 2 {
			return nil, fmt.Errorf("sql: POW takes two arguments")
		}
		a, err := fr.compile(x.Args[0])
		if err != nil {
			return nil, err
		}
		b, err := fr.compile(x.Args[1])
		if err != nil {
			return nil, err
		}
		a, b = toFloat(a), toFloat(b)
		var buf []float64
		return valueExpr(bat.Float, func(lo, hi int, sel []int) (vec, error) {
			va, vb, sel, err := evalPair(a, b, lo, hi, sel)
			if err != nil {
				return vec{}, err
			}
			buf = grow(buf, hi-lo)
			for _, p := range sel {
				buf[p] = math.Pow(va.f[p], vb.f[p])
			}
			return vec{f: buf}, nil
		}), nil
	}
	return nil, fmt.Errorf("sql: unknown function %s", x.Name)
}

// compileIn compiles e IN (list). Each list item is evaluated only on
// the rows no earlier item matched; equality is compareExpr's.
func (fr *frame) compileIn(x *InExpr) (*expr, error) {
	e, err := fr.compile(x.E)
	if err != nil {
		return nil, err
	}
	items := make([]*expr, len(x.List))
	for k, le := range x.List {
		c, err := fr.compile(le)
		if err != nil {
			return nil, err
		}
		if (c.typ == bat.String) != (e.typ == bat.String) {
			return nil, fmt.Errorf("sql: IN list mixes strings with numbers")
		}
		items[k] = c
	}
	var hit []bool
	var pend []int
	return predExpr(func(lo, hi int, sel, out []int) ([]int, error) {
		v, err := e.vals(lo, hi, sel)
		if err != nil {
			return nil, err
		}
		if sel == nil {
			sel = allRows(hi - lo)
		}
		hit = grow(hit, hi-lo)
		for _, p := range sel {
			hit[p] = false
		}
		pend = append(pend[:0], sel...)
		for _, it := range items {
			if len(pend) == 0 {
				break
			}
			w, err := it.vals(lo, hi, pend)
			if err != nil {
				return nil, err
			}
			rest := pend[:0]
			for _, p := range pend {
				if compareAt(v, e.typ, w, it.typ, p) == 0 {
					hit[p] = true
				} else {
					rest = append(rest, p)
				}
			}
			pend = rest
		}
		out = out[:0]
		for _, p := range sel {
			if hit[p] != x.Not {
				out = append(out, p)
			}
		}
		return out, nil
	}), nil
}

// compileBetween compiles e BETWEEN lo AND hi as lo <= e AND e <= hi
// under compareExpr's order, evaluating hi only where lo <= e holds.
func (fr *frame) compileBetween(x *BetweenExpr) (*expr, error) {
	e, err := fr.compile(x.E)
	if err != nil {
		return nil, err
	}
	lo, err := fr.compile(x.Lo)
	if err != nil {
		return nil, err
	}
	hi, err := fr.compile(x.Hi)
	if err != nil {
		return nil, err
	}
	str := e.typ == bat.String
	if (lo.typ == bat.String) != str || (hi.typ == bat.String) != str {
		return nil, fmt.Errorf("sql: BETWEEN bounds mix strings with numbers")
	}
	var in []bool
	var pend []int
	return predExpr(func(rlo, rhi int, sel, out []int) ([]int, error) {
		v, err := e.vals(rlo, rhi, sel)
		if err != nil {
			return nil, err
		}
		l, err := lo.vals(rlo, rhi, sel)
		if err != nil {
			return nil, err
		}
		if sel == nil {
			sel = allRows(rhi - rlo)
		}
		in = grow(in, rhi-rlo)
		pend = pend[:0]
		for _, p := range sel {
			in[p] = false
			if compareAt(l, lo.typ, v, e.typ, p) <= 0 {
				pend = append(pend, p)
			}
		}
		if len(pend) > 0 {
			h, err := hi.vals(rlo, rhi, pend)
			if err != nil {
				return nil, err
			}
			for _, p := range pend {
				in[p] = compareAt(v, e.typ, h, hi.typ, p) <= 0
			}
		}
		out = out[:0]
		for _, p := range sel {
			if in[p] != x.Not {
				out = append(out, p)
			}
		}
		return out, nil
	}), nil
}

func (fr *frame) compileLike(x *LikeExpr) (*expr, error) {
	e, err := fr.compile(x.E)
	if err != nil {
		return nil, err
	}
	if e.typ != bat.String {
		return nil, fmt.Errorf("sql: LIKE over non-string expression")
	}
	// Translate the SQL pattern (% = any run, _ = any one) to a regexp
	// anchored at both ends.
	var sb strings.Builder
	sb.WriteByte('^')
	for _, r := range x.Pattern {
		switch r {
		case '%':
			sb.WriteString("(?s).*")
		case '_':
			sb.WriteString("(?s).")
		default:
			sb.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	sb.WriteByte('$')
	re, err := regexp.Compile(sb.String())
	if err != nil {
		return nil, fmt.Errorf("sql: bad LIKE pattern %q: %v", x.Pattern, err)
	}
	return predExpr(func(lo, hi int, sel, out []int) ([]int, error) {
		v, err := e.vals(lo, hi, sel)
		if err != nil {
			return nil, err
		}
		if sel == nil {
			sel = allRows(hi - lo)
		}
		out = out[:0]
		for _, p := range sel {
			if re.MatchString(v.s[p]) != x.Not {
				out = append(out, p)
			}
		}
		return out, nil
	}), nil
}

// --- whole-source evaluation -----------------------------------------------

// evalInto evaluates ex over rows [0, n) of its bound source, a morsel
// at a time, into dst (ex's type, n values).
func evalInto(ex *expr, n int, dst vec) error {
	for lo := 0; lo < n; lo += bat.MorselSize {
		hi := min(lo+bat.MorselSize, n)
		v, err := ex.vals(lo, hi, nil)
		if err != nil {
			return err
		}
		switch ex.typ {
		case bat.Float:
			copy(dst.f[lo:hi], v.f)
		case bat.Int:
			copy(dst.i[lo:hi], v.i)
		default:
			copy(dst.s[lo:hi], v.s)
		}
	}
	return nil
}

// materialize evaluates an expression over every row of its bound
// source into a heap BAT.
func materialize(ex *expr, n int) (*bat.BAT, error) {
	var dst vec
	switch ex.typ {
	case bat.Float:
		dst.f = make([]float64, n)
	case bat.Int:
		dst.i = make([]int64, n)
	default:
		dst.s = make([]string, n)
	}
	if err := evalInto(ex, n, dst); err != nil {
		return nil, err
	}
	return bat.FromVector(vecOf(ex.typ, dst)), nil
}

// materializeVec is materialize into an arena-drawn vector, handed back
// with freeVec.
func materializeVec(c *exec.Ctx, ex *expr, n int) (*bat.Vector, error) {
	var dst vec
	switch ex.typ {
	case bat.Float:
		dst.f = c.Arena().Floats(n)
	case bat.Int:
		dst.i = c.Arena().Int64s(n)
	default:
		dst.s = c.Arena().Strings(n)
	}
	v := vecOf(ex.typ, dst)
	if err := evalInto(ex, n, dst); err != nil {
		freeVec(c, v)
		return nil, err
	}
	return v, nil
}

// vecOf wraps a result vector as a bat.Vector (no copy).
func vecOf(t bat.Type, v vec) *bat.Vector {
	switch t {
	case bat.Float:
		return bat.NewFloatVector(v.f)
	case bat.Int:
		return bat.NewIntVector(v.i)
	}
	return bat.NewStringVector(v.s)
}

// selectRows returns the rows of [0, n) of the predicates' bound source
// on which every predicate holds, ascending.
func selectRows(preds []*expr, n int) ([]int, error) {
	idx := make([]int, 0, n/4+1)
	buf := make([]int, 0, min(n, bat.MorselSize))
	for lo := 0; lo < n; lo += bat.MorselSize {
		hi := min(lo+bat.MorselSize, n)
		sel, err := keepAll(preds, lo, hi, buf)
		if err != nil {
			return nil, err
		}
		for _, p := range sel {
			idx = append(idx, lo+p)
		}
	}
	return idx, nil
}

// valueAt returns position p of a result vector as a boxed value.
func valueAt(t bat.Type, v vec, p int) bat.Value {
	switch t {
	case bat.Float:
		return bat.FloatValue(v.f[p])
	case bat.Int:
		return bat.IntValue(v.i[p])
	}
	return bat.StringValue(v.s[p])
}

// keyOf serializes an expression structurally, used to match GROUP BY
// expressions against occurrences in SELECT items and HAVING.
func keyOf(e Expr) string {
	switch x := e.(type) {
	case *NumberLit:
		if x.IsInt {
			return fmt.Sprintf("i:%d", x.Int)
		}
		return fmt.Sprintf("f:%g", x.Float)
	case *StringLit:
		return fmt.Sprintf("s:%q", x.Val)
	case *ColRef:
		return "c:" + refName(x.Qualifier, x.Name)
	case *UnaryExpr:
		return "u:" + x.Op + "(" + keyOf(x.E) + ")"
	case *BinaryExpr:
		return "b:" + x.Op + "(" + keyOf(x.L) + "," + keyOf(x.R) + ")"
	case *FuncCall:
		parts := make([]string, len(x.Args))
		for i, a := range x.Args {
			parts[i] = keyOf(a)
		}
		star := ""
		if x.Star {
			star = "*"
		}
		return "fn:" + x.Name + "(" + star + strings.Join(parts, ",") + ")"
	case *InExpr:
		parts := make([]string, len(x.List))
		for i, a := range x.List {
			parts[i] = keyOf(a)
		}
		return fmt.Sprintf("in:%v(%s;%s)", x.Not, keyOf(x.E), strings.Join(parts, ","))
	case *BetweenExpr:
		return fmt.Sprintf("btw:%v(%s;%s;%s)", x.Not, keyOf(x.E), keyOf(x.Lo), keyOf(x.Hi))
	case *LikeExpr:
		return fmt.Sprintf("like:%v(%s;%q)", x.Not, keyOf(x.E), x.Pattern)
	}
	return fmt.Sprintf("%T", e)
}
