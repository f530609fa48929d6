package sql

import (
	"fmt"
	"math"
	"reflect"
	"sort"

	"repro/internal/bat"
	"repro/internal/rel"
)

// This file is the reference SELECT evaluator the engine is checked
// against: a deliberately naive interpreter over [][]bat.Value rows. It
// shares nothing with the engine but the parser (Parse, and collectCols
// to list an expression's column references); expressions are evaluated
// row by row by refEval (eval_test.go). Joins are nested loops (inner,
// LEFT with zero padding, cross), grouping sorts the rows by key,
// aggregates fold each group in row order, and HAVING, DISTINCT
// (first occurrence kept), a stable ORDER BY and LIMIT run over the
// result rows.
//
// It covers the statement forms the differential oracle and the
// streaming tests generate. It rejects what the engine must reject
// there: unknown or ambiguous columns, aggregates over strings, HAVING
// without aggregation, LEFT JOIN without an equi-join conjunct, and
// ORDER BY keys that are neither output columns nor — without DISTINCT
// or grouping — input columns. It does not reproduce error text.

// refCol is one column of a reference relation.
type refCol struct {
	qual, name string
	typ        bat.Type
}

// refRel is a relation as rows of boxed values.
type refRel struct {
	cols []refCol
	rows [][]bat.Value
}

// refResult is the reference answer of a SELECT: output names (aliased
// marks the unique ones given by AS, the only ones compared), types and
// rows.
type refResult struct {
	names   []string
	aliased []bool
	types   []bat.Type
	rows    [][]bat.Value
}

// refQuery parses q (one SELECT) and evaluates it over tables.
func refQuery(tables map[string]*rel.Relation, q string) (*refResult, error) {
	stmts, err := Parse(q)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("ref: want one statement, got %d", len(stmts))
	}
	sel, ok := stmts[0].(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("ref: not a SELECT")
	}
	return refSelect(tables, sel)
}

func refSelect(tables map[string]*rel.Relation, sel *SelectStmt) (*refResult, error) {
	in, err := refFrom(tables, sel.From)
	if err != nil {
		return nil, err
	}
	if sel.Where != nil {
		if in, err = refFilter(in, sel.Where); err != nil {
			return nil, err
		}
	}
	var items []SelectItem
	for _, it := range sel.Items {
		if !it.Star {
			items = append(items, it)
			continue
		}
		for _, c := range in.cols {
			items = append(items, SelectItem{Expr: &ColRef{Qualifier: c.qual, Name: c.name}, As: c.name})
		}
	}

	res := &refResult{}
	for k, it := range items {
		name := it.As
		if cr, ok := it.Expr.(*ColRef); ok && name == "" {
			name = cr.Name
		} else if name == "" {
			name = fmt.Sprintf("col%d", k+1)
		}
		res.names = append(res.names, name)
		res.aliased = append(res.aliased, it.As != "")
	}
	for k, name := range res.names {
		for j := range res.names[:k] {
			if res.names[j] == name { // the engine renames duplicates
				res.aliased[j], res.aliased[k] = false, false
			}
		}
	}

	var aggs []*FuncCall
	for _, it := range items {
		aggs = refAggCalls(it.Expr, aggs)
	}
	if sel.Having != nil {
		aggs = refAggCalls(sel.Having, aggs)
	}
	grouped := len(aggs) > 0 || len(sel.GroupBy) > 0
	// inRows[i] is the input row output row i was projected from (nil
	// for grouped output): ORDER BY may sort on unselected input columns.
	var inRows [][]bat.Value
	if grouped {
		if res.rows, res.types, err = refGroup(in, sel, items, aggs); err != nil {
			return nil, err
		}
	} else {
		if sel.Having != nil {
			return nil, fmt.Errorf("ref: HAVING without aggregation")
		}
		exprs := make([]Expr, len(items))
		for k, it := range items {
			exprs[k] = it.Expr
		}
		if res.types, err = refTypes(in.cols, exprs); err != nil {
			return nil, err
		}
		if res.rows, err = refProject(in.cols, in.rows, exprs); err != nil {
			return nil, err
		}
		inRows = in.rows
	}

	if sel.Distinct {
		var kept [][]bat.Value
		for _, row := range res.rows {
			dup := false
			for _, k := range kept {
				if refRowsEqual(row, k) {
					dup = true
					break
				}
			}
			if !dup {
				kept = append(kept, row)
			}
		}
		res.rows = kept
	}

	if len(sel.OrderBy) > 0 {
		outCols := make([]refCol, len(res.names))
		for k := range outCols {
			outCols[k] = refCol{name: res.names[k], typ: res.types[k]}
		}
		keys := make([][]bat.Value, len(res.rows))
		for k := range keys {
			keys[k] = make([]bat.Value, len(sel.OrderBy))
		}
		for j, ob := range sel.OrderBy {
			eval, err := refBind(outCols, ob.Expr)
			src := res.rows
			if err != nil {
				if grouped || sel.Distinct {
					return nil, err
				}
				if eval, err = refBind(in.cols, ob.Expr); err != nil {
					return nil, err
				}
				src = inRows
			}
			for i, row := range src {
				if keys[i][j], err = eval(row); err != nil {
					return nil, err
				}
			}
		}
		perm := make([]int, len(res.rows))
		for i := range perm {
			perm[i] = i
		}
		sort.SliceStable(perm, func(a, b int) bool {
			for j, ob := range sel.OrderBy {
				c := refCmp(keys[perm[a]][j], keys[perm[b]][j])
				if ob.Desc {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
		sorted := make([][]bat.Value, len(perm))
		for i, p := range perm {
			sorted[i] = res.rows[p]
		}
		res.rows = sorted
	}
	if sel.Limit >= 0 && sel.Limit < len(res.rows) {
		res.rows = res.rows[:sel.Limit]
	}
	return res, nil
}

// refFrom evaluates a FROM tree: base tables and derived tables become
// row lists, joins are nested loops.
func refFrom(tables map[string]*rel.Relation, te TableExpr) (*refRel, error) {
	switch x := te.(type) {
	case *TableRef:
		r, ok := tables[x.Name]
		if !ok {
			return nil, fmt.Errorf("ref: no such table %q", x.Name)
		}
		qual := x.Alias
		if qual == "" {
			qual = x.Name
		}
		out := &refRel{}
		for _, a := range r.Schema {
			out.cols = append(out.cols, refCol{qual: qual, name: a.Name, typ: a.Type})
		}
		for i := 0; i < r.NumRows(); i++ {
			row := make([]bat.Value, len(r.Cols))
			for k, c := range r.Cols {
				row[k] = c.Get(i)
			}
			out.rows = append(out.rows, row)
		}
		return out, nil
	case *SubqueryRef:
		sub, err := refSelect(tables, x.Select)
		if err != nil {
			return nil, err
		}
		out := &refRel{rows: sub.rows}
		for k, name := range sub.names {
			out.cols = append(out.cols, refCol{qual: x.Alias, name: name, typ: sub.types[k]})
		}
		return out, nil
	case *JoinExpr:
		return refJoin(tables, x)
	}
	return nil, fmt.Errorf("ref: unsupported table expression %T", te)
}

func refJoin(tables map[string]*rel.Relation, x *JoinExpr) (*refRel, error) {
	left, err := refFrom(tables, x.Left)
	if err != nil {
		return nil, err
	}
	right, err := refFrom(tables, x.Right)
	if err != nil {
		return nil, err
	}
	out := &refRel{cols: append(append([]refCol(nil), left.cols...), right.cols...)}
	on := func([]bat.Value) (bool, error) { return true, nil } // CROSS JOIN
	if x.Kind != JoinCross {
		eval, err := refBind(out.cols, x.On)
		if err != nil {
			return nil, err
		}
		if x.Kind == JoinLeft && !refHasEquiKey(x.On, left.cols, right.cols) {
			return nil, fmt.Errorf("ref: LEFT JOIN needs an equi-join conjunct")
		}
		on = func(row []bat.Value) (bool, error) {
			v, err := eval(row)
			return refTruthy(v), err
		}
		// An ON clause that is one column equality compares the two
		// cells directly, with refEval's "=" semantics.
		if b, ok := x.On.(*BinaryExpr); ok && b.Op == "=" {
			lc, lok := b.L.(*ColRef)
			rc, rok := b.R.(*ColRef)
			if lok && rok {
				li, _ := refResolve(out.cols, lc)
				ri, _ := refResolve(out.cols, rc)
				on = func(row []bat.Value) (bool, error) { return refCmp(row[li], row[ri]) == 0, nil }
			}
		}
	}
	pad := make([]bat.Value, len(right.cols))
	for k, c := range right.cols {
		pad[k] = refZero(c.typ)
	}
	row := make([]bat.Value, len(out.cols))
	for _, l := range left.rows {
		copy(row, l)
		matched := false
		for _, r := range right.rows {
			copy(row[len(l):], r)
			keep, err := on(row)
			if err != nil {
				return nil, err
			}
			if !keep {
				continue
			}
			out.rows = append(out.rows, append([]bat.Value(nil), row...))
			matched = true
		}
		if !matched && x.Kind == JoinLeft {
			out.rows = append(out.rows, append(append(make([]bat.Value, 0, len(out.cols)), l...), pad...))
		}
	}
	return out, nil
}

// refHasEquiKey reports whether some AND-conjunct of on is an equality
// whose sides read only left and only right columns respectively.
func refHasEquiKey(on Expr, left, right []refCol) bool {
	if b, ok := on.(*BinaryExpr); ok && b.Op == "AND" {
		return refHasEquiKey(b.L, left, right) || refHasEquiKey(b.R, left, right)
	}
	b, ok := on.(*BinaryExpr)
	if !ok || b.Op != "=" {
		return false
	}
	side := func(e Expr) int {
		if len(collectCols(e, nil)) == 0 {
			return 0
		}
		if _, err := refBind(left, e); err == nil {
			return 1
		}
		if _, err := refBind(right, e); err == nil {
			return 2
		}
		return 0
	}
	l, r := side(b.L), side(b.R)
	return l != 0 && r != 0 && l != r
}

func refFilter(in *refRel, pred Expr) (*refRel, error) {
	eval, err := refBind(in.cols, pred)
	if err != nil {
		return nil, err
	}
	out := &refRel{cols: in.cols}
	for _, row := range in.rows {
		v, err := eval(row)
		if err != nil {
			return nil, err
		}
		if refTruthy(v) {
			out.rows = append(out.rows, row)
		}
	}
	return out, nil
}

// refGroup evaluates a grouped SELECT: rows sorted stably by the GROUP
// BY key tuple, runs of equal keys folded into groups, groups emitted
// in order of their first input row, then HAVING and the projection.
func refGroup(in *refRel, sel *SelectStmt, items []SelectItem, aggs []*FuncCall) ([][]bat.Value, []bat.Type, error) {
	if len(aggs) == 0 {
		return nil, nil, fmt.Errorf("ref: GROUP BY without aggregates")
	}
	keyTypes, err := refTypes(in.cols, sel.GroupBy)
	if err != nil {
		return nil, nil, err
	}
	keys, err := refProject(in.cols, in.rows, sel.GroupBy)
	if err != nil {
		return nil, nil, err
	}
	args := make([]Expr, len(aggs))
	for k, a := range aggs {
		if a.Star {
			if a.Name != "COUNT" {
				return nil, nil, fmt.Errorf("ref: %s(*)", a.Name)
			}
			continue
		}
		if len(a.Args) != 1 {
			return nil, nil, fmt.Errorf("ref: %s takes one argument", a.Name)
		}
		ts, err := refTypes(in.cols, a.Args)
		if err != nil {
			return nil, nil, err
		}
		if ts[0] == bat.String {
			return nil, nil, fmt.Errorf("ref: %s over a string", a.Name)
		}
		args[k] = a.Args[0]
	}

	order := make([]int, len(in.rows))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return refTupleCmp(keys[order[a]], keys[order[b]]) < 0 })
	var groups [][]int // row lists, each ascending
	for _, i := range order {
		if n := len(groups); n > 0 && refTupleCmp(keys[groups[n-1][0]], keys[i]) == 0 {
			groups[n-1] = append(groups[n-1], i)
			continue
		}
		groups = append(groups, []int{i})
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a][0] < groups[b][0] })
	if len(sel.GroupBy) == 0 && len(groups) == 0 {
		groups = [][]int{nil} // the global group of an empty input
	}

	// A group is seen through gcols: the GROUP BY keys, then one column
	// per aggregate. Items and HAVING are rewritten to read them.
	var gcols []refCol
	var subst []Expr
	for k, g := range sel.GroupBy {
		gcols = append(gcols, refCol{qual: "#ref", name: fmt.Sprintf("g%d", k), typ: keyTypes[k]})
		subst = append(subst, g)
	}
	for k, a := range aggs {
		typ := bat.Float
		if a.Name == "COUNT" {
			typ = bat.Int
		}
		gcols = append(gcols, refCol{qual: "#ref", name: fmt.Sprintf("a%d", k), typ: typ})
		subst = append(subst, a)
	}
	rewrite := func(e Expr) (Expr, error) {
		out := refSubst(e, subst, gcols)
		for _, c := range collectCols(out, nil) {
			if c.Qualifier != "#ref" {
				return nil, fmt.Errorf("ref: column %q is neither grouped nor aggregated", c.Name)
			}
		}
		return out, nil
	}
	exprs := make([]Expr, len(items))
	for k, it := range items {
		var err error
		if exprs[k], err = rewrite(it.Expr); err != nil {
			return nil, nil, err
		}
	}
	var having Expr
	if sel.Having != nil {
		var err error
		if having, err = rewrite(sel.Having); err != nil {
			return nil, nil, err
		}
	}
	types, err := refTypes(gcols, exprs)
	if err != nil {
		return nil, nil, err
	}

	var grows [][]bat.Value
	for _, rows := range groups {
		g := make([]bat.Value, 0, len(gcols))
		if len(rows) > 0 {
			g = append(g, keys[rows[0]]...)
		}
		for k, a := range aggs {
			v, err := refAggregate(a.Name, args[k], in, rows)
			if err != nil {
				return nil, nil, err
			}
			g = append(g, v)
		}
		grows = append(grows, g)
	}
	if having != nil {
		kept := &refRel{cols: gcols, rows: grows}
		if kept, err = refFilter(kept, having); err != nil {
			return nil, nil, err
		}
		grows = kept.rows
	}
	out, err := refProject(gcols, grows, exprs)
	return out, types, err
}

// refAggregate folds one aggregate over a group's rows in row order.
// An empty group (the global group of an empty input) aggregates to 0.
func refAggregate(fn string, arg Expr, in *refRel, rows []int) (bat.Value, error) {
	if fn == "COUNT" {
		return bat.IntValue(int64(len(rows))), nil
	}
	eval, err := refBind(in.cols, arg)
	if err != nil {
		return bat.Value{}, err
	}
	var acc float64
	for n, i := range rows {
		v, err := eval(in.rows[i])
		if err != nil {
			return bat.Value{}, err
		}
		x := v.AsFloat()
		switch {
		case fn == "SUM" || fn == "AVG":
			acc += x
		case n == 0, fn == "MIN" && x < acc, fn == "MAX" && x > acc:
			acc = x
		}
	}
	if fn == "AVG" && len(rows) > 0 {
		acc /= float64(len(rows))
	}
	return bat.FloatValue(acc), nil
}

// refAggCalls appends the aggregate calls under e not already in acc.
func refAggCalls(e Expr, acc []*FuncCall) []*FuncCall {
	switch x := e.(type) {
	case *FuncCall:
		if _, ok := aggFuncs[x.Name]; ok {
			for _, a := range acc {
				if reflect.DeepEqual(a, x) {
					return acc
				}
			}
			return append(acc, x)
		}
		for _, a := range x.Args {
			acc = refAggCalls(a, acc)
		}
	case *UnaryExpr:
		acc = refAggCalls(x.E, acc)
	case *BinaryExpr:
		acc = refAggCalls(x.R, refAggCalls(x.L, acc))
	}
	return acc
}

// refSubst replaces every subexpression structurally equal to subst[k]
// with a reference to cols[k].
func refSubst(e Expr, subst []Expr, cols []refCol) Expr {
	for k, s := range subst {
		if reflect.DeepEqual(e, s) {
			return &ColRef{Qualifier: cols[k].qual, Name: cols[k].name}
		}
	}
	switch x := e.(type) {
	case *UnaryExpr:
		return &UnaryExpr{Op: x.Op, E: refSubst(x.E, subst, cols)}
	case *BinaryExpr:
		return &BinaryExpr{Op: x.Op, L: refSubst(x.L, subst, cols), R: refSubst(x.R, subst, cols)}
	case *FuncCall:
		args := make([]Expr, len(x.Args))
		for k, a := range x.Args {
			args[k] = refSubst(a, subst, cols)
		}
		return &FuncCall{Name: x.Name, Star: x.Star, Args: args}
	}
	return e
}

// refResolve finds the column a reference names: the name must match,
// and the qualifier too when the reference carries one.
func refResolve(cols []refCol, c *ColRef) (int, error) {
	at := -1
	for k, rc := range cols {
		if rc.name == c.Name && (c.Qualifier == "" || c.Qualifier == rc.qual) {
			if at >= 0 {
				return 0, fmt.Errorf("ref: ambiguous column %q", c.Name)
			}
			at = k
		}
	}
	if at < 0 {
		return 0, fmt.Errorf("ref: unknown column %q", c.Name)
	}
	return at, nil
}

// refBind resolves every column reference of e against cols once and
// returns an evaluator of e over rows of cols (not safe for concurrent
// use).
func refBind(cols []refCol, e Expr) (func(row []bat.Value) (bat.Value, error), error) {
	at := map[*ColRef]int{}
	for _, c := range collectCols(e, nil) {
		k, err := refResolve(cols, c)
		if err != nil {
			return nil, err
		}
		at[c] = k
	}
	var cur []bat.Value
	col := func(c *ColRef) bat.Value { return cur[at[c]] }
	return func(row []bat.Value) (bat.Value, error) {
		cur = row
		return refEval(e, col)
	}, nil
}

// refProject evaluates exprs over every row of cols.
func refProject(cols []refCol, rows [][]bat.Value, exprs []Expr) ([][]bat.Value, error) {
	evals := make([]func([]bat.Value) (bat.Value, error), len(exprs))
	for k, e := range exprs {
		var err error
		if evals[k], err = refBind(cols, e); err != nil {
			return nil, err
		}
	}
	out := make([][]bat.Value, len(rows))
	for i, row := range rows {
		out[i] = make([]bat.Value, len(exprs))
		for k, eval := range evals {
			var err error
			if out[i][k], err = eval(row); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// refTypes returns the result types of exprs over cols, found by
// evaluating each over a row of typed zero values.
func refTypes(cols []refCol, exprs []Expr) ([]bat.Type, error) {
	proto := make([]bat.Value, len(cols))
	for k, c := range cols {
		proto[k] = refZero(c.typ)
	}
	types := make([]bat.Type, len(exprs))
	for k, e := range exprs {
		eval, err := refBind(cols, e)
		if err != nil {
			return nil, err
		}
		v, _ := eval(proto)
		types[k] = v.Type
	}
	return types, nil
}

func refZero(t bat.Type) bat.Value {
	switch t {
	case bat.Int:
		return bat.IntValue(0)
	case bat.String:
		return bat.StringValue("")
	}
	return bat.FloatValue(0)
}

func refTupleCmp(a, b []bat.Value) int {
	for k := range a {
		if c := refCmp(a[k], b[k]); c != 0 {
			return c
		}
	}
	return 0
}

func refRowsEqual(a, b []bat.Value) bool {
	for k := range a {
		if a[k].Type != b[k].Type || refCmp(a[k], b[k]) != 0 {
			return false
		}
	}
	return true
}

// checkReference compares an engine result with the reference answer:
// arity, types, the aliased names, and every value bit for bit.
func checkReference(got *rel.Relation, want *refResult) error {
	if len(got.Schema) != len(want.types) {
		return fmt.Errorf("arity %d, reference %d", len(got.Schema), len(want.types))
	}
	for k, a := range got.Schema {
		if a.Type != want.types[k] {
			return fmt.Errorf("column %d type %v, reference %v", k, a.Type, want.types[k])
		}
		if want.aliased[k] && a.Name != want.names[k] {
			return fmt.Errorf("column %d named %q, reference %q", k, a.Name, want.names[k])
		}
	}
	if got.NumRows() != len(want.rows) {
		return fmt.Errorf("%d rows, reference %d", got.NumRows(), len(want.rows))
	}
	for i, row := range want.rows {
		for k, w := range row {
			if g := got.Cols[k].Get(i); !sameBits(g, w) {
				return fmt.Errorf("row %d col %q: %v (%#x), reference %v (%#x)", i, got.Schema[k].Name,
					g, math.Float64bits(g.F), w, math.Float64bits(w.F))
			}
		}
	}
	return nil
}
