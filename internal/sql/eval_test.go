package sql

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/rel"
)

// This file checks the morsel evaluator against refEval, a plain
// per-row interpreter of the same SQL semantics written independently
// of it: comparisons in the total order (NaN equal to NaN and after
// every number, -0 equal to +0), Int-with-Int compared exactly, integer
// % by zero an error, AND/OR/IN/BETWEEN short-circuiting row by row.

// evalRows is the row count of the generated table: more than one
// morsel, so the scan's global-row binding crosses a morsel boundary.
const evalRows = bat.MorselSize + 904

// evalTable generates n(id, i, x, y, s) with the edge values of each
// domain cycled through random ones.
func evalTable() *rel.Relation {
	ints := []int64{0, 1, -1, 7, 3, 1 << 53, 1<<53 + 1, 1<<53 - 1, -(1 << 53) - 1, math.MaxInt64, math.MinInt64}
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1.5, -2.25, 7,
		1 << 53, 1<<53 + 2, 1e300, -1e-300}
	strs := []string{"", "a", "ab", "b", "abc", "%", "_x", "ba"}
	rng := rand.New(rand.NewSource(7))
	id := make([]int64, evalRows)
	iv := make([]int64, evalRows)
	xv := make([]float64, evalRows)
	yv := make([]float64, evalRows)
	sv := make([]string, evalRows)
	for r := range id {
		id[r] = int64(r)
		if r%2 == 0 {
			iv[r] = ints[(r/2)%len(ints)]
			xv[r] = floats[(r/2)%len(floats)]
			yv[r] = floats[(r/2+5)%len(floats)]
			sv[r] = strs[(r/2)%len(strs)]
		} else {
			iv[r] = int64(rng.Intn(21) - 10)
			xv[r] = float64(rng.Intn(41)-20) * 0.5
			yv[r] = float64(rng.Intn(9) - 4)
			sv[r] = strs[rng.Intn(len(strs))]
		}
	}
	return rel.MustNew("n", rel.Schema{
		{Name: "id", Type: bat.Int}, {Name: "i", Type: bat.Int},
		{Name: "x", Type: bat.Float}, {Name: "y", Type: bat.Float}, {Name: "s", Type: bat.String},
	}, []*bat.BAT{bat.FromInts(id), bat.FromInts(iv), bat.FromFloats(xv), bat.FromFloats(yv), bat.FromStrings(sv)})
}

// evalDB registers n plus the join partners of the filter and join-key
// sites: m(mid, mz), one row per n row, and kd(kid, k), a small build
// side of float keys.
func evalDB(t *testing.T) *DB {
	t.Helper()
	n := evalTable()
	db := NewDB()
	db.Register("n", n)
	ids := n.Cols[0].Vector().Ints()
	mz := make([]int64, len(ids))
	db.Register("m", rel.MustNew("m", rel.Schema{{Name: "mid", Type: bat.Int}, {Name: "mz", Type: bat.Int}},
		[]*bat.BAT{bat.FromInts(ids), bat.FromInts(mz)}))
	ks := []float64{0, math.Copysign(0, -1), math.NaN(), 1, 7, -1, 1 << 53, 3.5, math.Inf(1), 1}
	kid := make([]int64, len(ks))
	for j := range kid {
		kid[j] = int64(j)
	}
	db.Register("kd", rel.MustNew("kd", rel.Schema{{Name: "kid", Type: bat.Int}, {Name: "k", Type: bat.Float}},
		[]*bat.BAT{bat.FromInts(kid), bat.FromFloats(ks)}))
	return db
}

// --- expression generator ----------------------------------------------------

type exprGen struct {
	rng    *rand.Rand
	divide bool // allow % by a non-literal (possibly zero) divisor
}

func (g *exprGen) pick(xs ...string) string { return xs[g.rng.Intn(len(xs))] }

func (g *exprGen) num(d int) string {
	if d <= 0 || g.rng.Intn(4) == 0 {
		return g.pick("id", "i", "x", "y", "i", "x", "0", "1", "7", "-3", "2.5", "0.0",
			"9007199254740992", "9007199254740993", "9007199254740992.0")
	}
	a, b := g.num(d-1), g.num(d-1)
	switch g.rng.Intn(9) {
	case 0, 1:
		return "(" + a + " " + g.pick("+", "-", "*", "/") + " " + b + ")"
	case 2:
		if g.divide {
			return "(" + a + " % " + b + ")"
		}
		return "(" + a + " % " + g.pick("3", "7", "2.5") + ")"
	case 3:
		return "(-(" + a + "))"
	case 4:
		return g.pick("ABS", "SQRT", "FLOOR", "CEIL", "EXP", "LN") + "(" + a + ")"
	case 5:
		return "POW(" + a + ", " + g.pick("2", "0.5", "-1") + ")"
	case 6:
		return "(" + g.pred(d-1) + ")"
	case 7:
		return "((" + a + " - " + a + ") / (" + a + " - " + a + "))" // NaN on finite rows
	}
	return a
}

func (g *exprGen) str() string {
	return g.pick("s", "s", "'a'", "'ab'", "''", "'b'")
}

func (g *exprGen) pred(d int) string {
	if d <= 0 {
		return g.num(0) + " " + g.pick("=", "<>", "<", "<=", ">", ">=") + " " + g.num(0)
	}
	switch g.rng.Intn(10) {
	case 0, 1:
		return g.num(d-1) + " " + g.pick("=", "<>", "<", "<=", ">", ">=") + " " + g.num(d-1)
	case 2:
		return g.str() + " " + g.pick("=", "<>", "<", ">=") + " " + g.str()
	case 3:
		return "(" + g.pred(d-1) + ") AND (" + g.pred(d-1) + ")"
	case 4:
		return "(" + g.pred(d-1) + ") OR (" + g.pred(d-1) + ")"
	case 5:
		return "NOT (" + g.pred(d-1) + ")"
	case 6:
		return g.num(d-1) + g.pick(" ", " NOT ") + "BETWEEN " + g.num(0) + " AND " + g.num(d-1)
	case 7:
		if g.rng.Intn(2) == 0 {
			return g.str() + g.pick(" ", " NOT ") + "IN ('a', '', s)"
		}
		return g.num(d-1) + g.pick(" ", " NOT ") + "IN (" + g.num(0) + ", " + g.num(d-1) + ", 7)"
	case 8:
		return "s" + g.pick(" ", " NOT ") + "LIKE " + g.pick("'a%'", "'%b'", "'_'", "'%'", "'a_c'", "''")
	}
	return g.num(d - 1) // numeric truthiness
}

// parseExpr parses one scalar expression.
func parseExpr(t *testing.T, src string) Expr {
	t.Helper()
	stmts, err := Parse("SELECT " + src + " FROM n")
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return stmts[0].(*SelectStmt).Items[0].Expr
}

// --- reference interpreter ---------------------------------------------------

var errRefDivZero = errors.New("division by zero")

// totalCmp orders floats with NaN last (equal to NaN) and -0 = +0.
func totalCmp(a, b float64) int {
	an, bn := a != a, b != b
	switch {
	case an && bn:
		return 0
	case an:
		return 1
	case bn:
		return -1
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func refCmp(a, b bat.Value) int {
	switch {
	case a.Type == bat.String:
		return strings.Compare(a.S, b.S)
	case a.Type == bat.Int && b.Type == bat.Int:
		return cmp.Compare(a.I, b.I)
	}
	return totalCmp(a.AsFloat(), b.AsFloat())
}

func refTruthy(v bat.Value) bool {
	switch v.Type {
	case bat.Int:
		return v.I != 0
	case bat.Float:
		return v.F != 0
	}
	return v.S != ""
}

func refBool(b bool) bat.Value {
	if b {
		return bat.IntValue(1)
	}
	return bat.IntValue(0)
}

// likeMatch matches SQL LIKE: % any run, _ any one character.
func likeMatch(s, pat string) bool {
	if pat == "" {
		return s == ""
	}
	switch pat[0] {
	case '%':
		for k := 0; k <= len(s); k++ {
			if likeMatch(s[k:], pat[1:]) {
				return true
			}
		}
		return false
	case '_':
		return s != "" && likeMatch(s[1:], pat[1:])
	}
	return s != "" && s[0] == pat[0] && likeMatch(s[1:], pat[1:])
}

// refEval evaluates e on one row; col returns the row's value of a
// column reference.
func refEval(e Expr, col func(*ColRef) bat.Value) (bat.Value, error) {
	switch x := e.(type) {
	case *NumberLit:
		if x.IsInt {
			return bat.IntValue(x.Int), nil
		}
		return bat.FloatValue(x.Float), nil
	case *StringLit:
		return bat.StringValue(x.Val), nil
	case *ColRef:
		return col(x), nil
	case *UnaryExpr:
		v, err := refEval(x.E, col)
		if err != nil {
			return v, err
		}
		if x.Op == "NOT" {
			return refBool(!refTruthy(v)), nil
		}
		if v.Type == bat.Int {
			return bat.IntValue(-v.I), nil
		}
		return bat.FloatValue(-v.F), nil
	case *BinaryExpr:
		l, err := refEval(x.L, col)
		if err != nil {
			return l, err
		}
		switch x.Op {
		case "AND", "OR":
			if refTruthy(l) == (x.Op == "OR") {
				return refBool(x.Op == "OR"), nil
			}
			r, err := refEval(x.R, col)
			return refBool(refTruthy(r)), err
		}
		r, err := refEval(x.R, col)
		if err != nil {
			return r, err
		}
		switch x.Op {
		case "=":
			return refBool(refCmp(l, r) == 0), nil
		case "<>":
			return refBool(refCmp(l, r) != 0), nil
		case "<":
			return refBool(refCmp(l, r) < 0), nil
		case "<=":
			return refBool(refCmp(l, r) <= 0), nil
		case ">":
			return refBool(refCmp(l, r) > 0), nil
		case ">=":
			return refBool(refCmp(l, r) >= 0), nil
		}
		if l.Type == bat.Int && r.Type == bat.Int && x.Op != "/" {
			a, b := l.I, r.I
			switch x.Op {
			case "+":
				return bat.IntValue(a + b), nil
			case "-":
				return bat.IntValue(a - b), nil
			case "*":
				return bat.IntValue(a * b), nil
			}
			if b == 0 {
				return bat.Value{}, errRefDivZero
			}
			return bat.IntValue(a % b), nil
		}
		a, b := l.AsFloat(), r.AsFloat()
		switch x.Op {
		case "+":
			return bat.FloatValue(a + b), nil
		case "-":
			return bat.FloatValue(a - b), nil
		case "*":
			return bat.FloatValue(a * b), nil
		case "/":
			return bat.FloatValue(a / b), nil
		}
		return bat.FloatValue(math.Mod(a, b)), nil
	case *FuncCall:
		args := make([]float64, len(x.Args))
		for k, a := range x.Args {
			v, err := refEval(a, col)
			if err != nil {
				return v, err
			}
			args[k] = v.AsFloat()
		}
		fns := map[string]func(float64) float64{"ABS": math.Abs, "SQRT": math.Sqrt, "FLOOR": math.Floor,
			"CEIL": math.Ceil, "EXP": math.Exp, "LN": math.Log}
		if f, ok := fns[x.Name]; ok {
			return bat.FloatValue(f(args[0])), nil
		}
		return bat.FloatValue(math.Pow(args[0], args[1])), nil
	case *BetweenExpr:
		v, err := refEval(x.E, col)
		if err != nil {
			return v, err
		}
		lo, err := refEval(x.Lo, col)
		if err != nil {
			return lo, err
		}
		in := false
		if refCmp(lo, v) <= 0 {
			hi, err := refEval(x.Hi, col)
			if err != nil {
				return hi, err
			}
			in = refCmp(v, hi) <= 0
		}
		return refBool(in != x.Not), nil
	case *InExpr:
		v, err := refEval(x.E, col)
		if err != nil {
			return v, err
		}
		hit := false
		for _, it := range x.List {
			w, err := refEval(it, col)
			if err != nil {
				return w, err
			}
			if refCmp(v, w) == 0 {
				hit = true
				break
			}
		}
		return refBool(hit != x.Not), nil
	case *LikeExpr:
		v, err := refEval(x.E, col)
		if err != nil {
			return v, err
		}
		return refBool(likeMatch(v.S, x.Pattern) != x.Not), nil
	}
	panic(fmt.Sprintf("refEval: %T", e))
}

// refRows evaluates e on every row of r; the error is the first row's.
func refRows(e Expr, r *rel.Relation) ([]bat.Value, []error) {
	vals := make([]bat.Value, r.NumRows())
	errs := make([]error, r.NumRows())
	row := map[string]bat.Value{}
	for i := range vals {
		for k, a := range r.Schema {
			row[a.Name] = r.Cols[k].Get(i)
		}
		vals[i], errs[i] = refEval(e, func(c *ColRef) bat.Value { return row[c.Name] })
	}
	return vals, errs
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sameBits reports whether two values are identical, floats bit for bit.
func sameBits(a, b bat.Value) bool {
	if a.Type != b.Type {
		return false
	}
	switch a.Type {
	case bat.Float:
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case bat.Int:
		return a.I == b.I
	}
	return a.S == b.S
}

// --- kernel-level test -------------------------------------------------------

// TestEvalKernelsMatchReference compiles random expressions over every
// node kind against n and evaluates them morsel by morsel under empty,
// all-selected, none-selected and partially selected selection vectors:
// the values at selected positions, the predicate's kept positions and
// the division-by-zero error must match refEval row by row.
func TestEvalKernelsMatchReference(t *testing.T) {
	n := evalTable()
	src := newSource(n, "n")
	g := &exprGen{rng: rand.New(rand.NewSource(11)), divide: true}
	ranges := [][2]int{{0, 0}, {0, bat.MorselSize}, {bat.MorselSize, evalRows}, {37, 38}}
	for q := 0; q < 400; q++ {
		var text string
		switch q % 4 {
		case 0:
			text = g.str()
		case 1:
			text = g.num(3)
		default:
			text = g.pred(3)
		}
		e := parseExpr(t, text)
		ex, err := compileExpr(e, src)
		if err != nil {
			t.Fatalf("%s: compile: %v", text, err)
		}
		want, errs := refRows(e, n)
		for _, rg := range ranges {
			lo, hi := rg[0], rg[1]
			some := []int{}
			for p := 0; p < hi-lo; p++ {
				if (p*7+q)%3 == 0 {
					some = append(some, p)
				}
			}
			for si, sel := range [][]int{nil, allRows(hi - lo), {}, some} {
				positions := sel
				if sel == nil {
					positions = allRows(hi - lo)
				}
				var wantErr error
				for _, p := range positions {
					if wantErr = errs[lo+p]; wantErr != nil {
						break
					}
				}
				where := fmt.Sprintf("%s over [%d,%d) sel#%d", text, lo, hi, si)

				v, err := ex.vals(lo, hi, sel)
				if (err != nil) != (wantErr != nil) || (err != nil && !errors.Is(err, ErrDivisionByZero)) {
					t.Fatalf("%s: vals error %v, reference %v", where, err, wantErr)
				}
				if err == nil {
					for _, p := range positions {
						if got := valueAt(ex.typ, v, p); !sameBits(got, want[lo+p]) {
							t.Fatalf("%s: row %d = %v, reference %v", where, lo+p, got, want[lo+p])
						}
					}
				}

				kept, err := ex.keep(lo, hi, sel, make([]int, 0, hi-lo))
				if (err != nil) != (wantErr != nil) {
					t.Fatalf("%s: keep error %v, reference %v", where, err, wantErr)
				}
				if err != nil {
					continue
				}
				var wantKept []int
				for _, p := range positions {
					if refTruthy(want[lo+p]) {
						wantKept = append(wantKept, p)
					}
				}
				if fmt.Sprint(kept) != fmt.Sprint(wantKept) && !(len(kept) == 0 && len(wantKept) == 0) {
					t.Fatalf("%s: keep = %v, reference %v", where, kept, wantKept)
				}
			}
		}
	}
}

// --- statement-level sites ---------------------------------------------------

// siteCase runs one statement at workers 1 and 2 and hands each result
// to check.
func siteCase(t *testing.T, db *DB, q string, wantErr error, check func(*rel.Relation) error) {
	t.Helper()
	for _, w := range []int{1, 2} {
		res, err := db.QueryWith(q, &core.Options{Parallelism: w})
		if wantErr != nil {
			if !errors.Is(err, ErrDivisionByZero) {
				t.Fatalf("workers %d: %s: error %v, want division by zero", w, q, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("workers %d: %s: %v", w, q, err)
		}
		if err := check(res); err != nil {
			t.Fatalf("workers %d: %s: %v", w, q, err)
		}
	}
}

func intsOf(res *rel.Relation, k int) []int64 { return res.Cols[k].Vector().Ints() }

// TestEvalSitesMatchReference runs random expressions at every site the
// evaluator serves — scan predicate (bound to global rows), post-join
// filter, join key, group key and projection — and checks each result
// against refEval.
func TestEvalSitesMatchReference(t *testing.T) {
	db := evalDB(t)
	n := evalTable()
	g := &exprGen{rng: rand.New(rand.NewSource(23)), divide: true}
	for q := 0; q < 40; q++ {
		// Scan and filter: the ids of the rows where the predicate holds.
		p := g.pred(3)
		pe := parseExpr(t, p)
		vals, errs := refRows(pe, n)
		var ids []int64
		for r, v := range vals {
			if refTruthy(v) {
				ids = append(ids, int64(r))
			}
		}
		checkIDs := func(res *rel.Relation) error {
			if got := intsOf(res, 0); fmt.Sprint(got) != fmt.Sprint(ids) && len(got)+len(ids) > 0 {
				return fmt.Errorf("ids %v, reference %v", got, ids)
			}
			return nil
		}
		siteCase(t, db, "SELECT id FROM n WHERE "+p, firstErr(errs), checkIDs)
		siteCase(t, db, "SELECT n.id FROM n JOIN m ON n.id = m.mid WHERE ("+p+") OR m.mz <> m.mz", firstErr(errs), checkIDs)

		// Projection: every value, bit for bit.
		v := g.num(3)
		if q%3 == 0 {
			v = g.pred(2)
		}
		ve := parseExpr(t, v)
		vals, errs = refRows(ve, n)
		siteCase(t, db, "SELECT "+v+" AS v FROM n", firstErr(errs), func(res *rel.Relation) error {
			for r := range vals {
				if got := res.Cols[0].Get(r); !sameBits(got, vals[r]) {
					return fmt.Errorf("row %d = %v, reference %v", r, got, vals[r])
				}
			}
			return nil
		})

		// Group key: groups in first-seen order, keys equal under the
		// total order, the first row's value as representative.
		type grp struct {
			rep bat.Value
			cnt int64
		}
		var groups []*grp
		find := func(v bat.Value) *grp {
			for _, gr := range groups {
				if refCmp(gr.rep, v) == 0 {
					return gr
				}
			}
			gr := &grp{rep: v}
			groups = append(groups, gr)
			return gr
		}
		for _, v := range vals {
			find(v).cnt++
		}
		siteCase(t, db, "SELECT "+v+" AS g, COUNT(*) AS c FROM n GROUP BY "+v, firstErr(errs), func(res *rel.Relation) error {
			if res.NumRows() != len(groups) {
				return fmt.Errorf("%d groups, reference %d", res.NumRows(), len(groups))
			}
			for k, gr := range groups {
				if got := res.Cols[0].Get(k); !sameBits(got, gr.rep) || intsOf(res, 1)[k] != gr.cnt {
					return fmt.Errorf("group %d = %v x%d, reference %v x%d", k, got, intsOf(res, 1)[k], gr.rep, gr.cnt)
				}
			}
			return nil
		})

		// Join key: pairs in probe order, matches in build order; numeric
		// keys match as float64 under the total order.
		kd, _ := db.Table("kd")
		ks := kd.Cols[1].Vector().Floats()
		var pairs []string
		for r, v := range vals {
			for j, k := range ks {
				if v.Type != bat.String && totalCmp(v.AsFloat(), k) == 0 {
					pairs = append(pairs, fmt.Sprintf("%d:%d", r, j))
				}
			}
		}
		if vals[0].Type == bat.String {
			continue
		}
		siteCase(t, db, "SELECT n.id, kd.kid FROM n JOIN kd ON ("+v+") = kd.k", firstErr(errs), func(res *rel.Relation) error {
			got := make([]string, res.NumRows())
			for r := range got {
				got[r] = fmt.Sprintf("%d:%d", intsOf(res, 0)[r], intsOf(res, 1)[r])
			}
			if fmt.Sprint(got) != fmt.Sprint(pairs) && len(got)+len(pairs) > 0 {
				return fmt.Errorf("pairs %v, reference %v", got, pairs)
			}
			return nil
		})
	}
}

// --- regressions -------------------------------------------------------------

func regressionDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	db.Register("n", rel.MustNew("n", rel.Schema{{Name: "x", Type: bat.Float}, {Name: "i", Type: bat.Int},
		{Name: "a", Type: bat.Int}, {Name: "b", Type: bat.Int}},
		[]*bat.BAT{bat.FromFloats([]float64{1, 2, 3}), bat.FromInts([]int64{1 << 53, 1<<53 + 1, 5}),
			bat.FromInts([]int64{7, 9, 4}), bat.FromInts([]int64{0, 4, 3})}))
	return db
}

func queryRows(t *testing.T, db *DB, q string) int {
	t.Helper()
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res.NumRows()
}

// TestCompareNaNTotalOrder: a NaN compares in the total order — equal
// only to NaN, after every number — so it no longer satisfies = 5 and
// fails <> 5.
func TestCompareNaNTotalOrder(t *testing.T) {
	const nan = "(x - x) / (x - x)"
	db := regressionDB(t)
	for q, want := range map[string]int{
		"SELECT x FROM n WHERE " + nan + " = 5":             0,
		"SELECT x FROM n WHERE " + nan + " <> 5":            3,
		"SELECT x FROM n WHERE " + nan + " > 1e308":         3,
		"SELECT x FROM n WHERE " + nan + " = " + nan:        3,
		"SELECT x FROM n WHERE " + nan + " IN (5, 6)":       0,
		"SELECT x FROM n WHERE " + nan + " BETWEEN 0 AND 9": 0,
	} {
		if got := queryRows(t, db, q); got != want {
			t.Fatalf("%s returned %d rows, want %d", q, got, want)
		}
	}
}

// TestCompareIntExact: Int-with-Int comparisons, BETWEEN and IN compare
// int64 exactly instead of through float64, which cannot tell 2^53
// from 2^53+1.
func TestCompareIntExact(t *testing.T) {
	db := regressionDB(t)
	for q, want := range map[string]int{
		"SELECT i FROM n WHERE i = 9007199254740992":                            1,
		"SELECT i FROM n WHERE i <> 9007199254740992":                           2,
		"SELECT i FROM n WHERE i > 9007199254740992":                            1,
		"SELECT i FROM n WHERE i BETWEEN 9007199254740993 AND 9007199254740993": 1,
		"SELECT i FROM n WHERE i IN (9007199254740993)":                         1,
		"SELECT i FROM n WHERE i = 9007199254740992.0":                          2, // mixed: float64
	} {
		if got := queryRows(t, db, q); got != want {
			t.Fatalf("%s returned %d rows, want %d", q, got, want)
		}
	}
}

// TestModByZero: integer % by zero is a typed error, raised only for
// rows the statement evaluates — AND and OR still short-circuit.
func TestModByZero(t *testing.T) {
	db := regressionDB(t)
	for _, q := range []string{"SELECT a % b FROM n", "SELECT a FROM n WHERE a % b = 1", "INSERT INTO n VALUES (1, 2, 3, 4 % 0)"} {
		if _, err := db.Exec(q); !errors.Is(err, ErrDivisionByZero) {
			t.Fatalf("%s: error %v, want ErrDivisionByZero", q, err)
		}
	}
	if got := queryRows(t, db, "SELECT a FROM n WHERE b <> 0 AND a % b = 1"); got != 2 {
		t.Fatalf("AND short-circuit returned %d rows, want 2", got)
	}
	if got := queryRows(t, db, "SELECT a FROM n WHERE b = 0 OR a % b = 1"); got != 3 {
		t.Fatalf("OR short-circuit returned %d rows, want 3", got)
	}
}
