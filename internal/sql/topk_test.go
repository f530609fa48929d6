package sql

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/rel"
)

// This file checks ORDER BY and ORDER BY … LIMIT against plain Go
// computed over the raw columns, at table sizes above the parallel
// cutoff so the chunked top-k and the parallel sort both run.

// orderDBs registers r as t in an uncached and a cached database over
// the same column storage.
func orderDBs(r *rel.Relation) map[string]*DB {
	streamed, cached := NewDB(), NewDB()
	streamed.SetPlanCache(false)
	dbs := map[string]*DB{"streamed": streamed, "cached": cached}
	for _, db := range dbs {
		db.Register("t", r)
	}
	return dbs
}

// checkOrderQuery runs q on every executor at workers 1, 2 and 8 (the
// cached executor twice, cold then hit) and requires each result to be
// bitwise identical to want.
func checkOrderQuery(t *testing.T, dbs map[string]*DB, q string, want *rel.Relation) {
	t.Helper()
	for _, w := range []int{1, 2, 8} {
		for _, name := range []string{"streamed", "cached", "cached"} {
			got, err := dbs[name].ExecWith(q, &core.Options{Parallelism: w})
			if err != nil {
				t.Fatalf("%s workers=%d %s: %v", q, w, name, err)
			}
			if err := equalBits(want, got); err != nil {
				t.Fatalf("%s workers=%d %s: %v", q, w, name, err)
			}
		}
	}
}

// refFloatCmp is the documented float order: NaN after every number
// and tied with other NaNs, -0 tied with +0.
func refFloatCmp(a, b float64) int {
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an || bn:
		if an && bn {
			return 0
		}
		if an {
			return 1
		}
		return -1
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// refOrder returns the rows [0, n) stably sorted by cmp, cut to limit.
func refOrder(n, limit int, cmp func(a, b int) int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	sort.SliceStable(rows, func(a, b int) bool { return cmp(rows[a], rows[b]) < 0 })
	if limit >= 0 && limit < n {
		rows = rows[:limit]
	}
	return rows
}

// refRelation builds the expected result: one column per (name, values)
// pair, each gathered at rows.
func refRelation(t *testing.T, rows []int, names []string, cols ...any) *rel.Relation {
	t.Helper()
	schema := make(rel.Schema, len(cols))
	bats := make([]*bat.BAT, len(cols))
	for k, col := range cols {
		switch v := col.(type) {
		case []int64:
			out := make([]int64, len(rows))
			for i, r := range rows {
				out[i] = v[r]
			}
			schema[k], bats[k] = rel.Attr{Name: names[k], Type: bat.Int}, bat.FromInts(out)
		case []float64:
			out := make([]float64, len(rows))
			for i, r := range rows {
				out[i] = v[r]
			}
			schema[k], bats[k] = rel.Attr{Name: names[k], Type: bat.Float}, bat.FromFloats(out)
		default:
			t.Fatalf("refRelation: column type %T", col)
		}
	}
	r, err := rel.New("", schema, bats)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestOrderByNaNIdenticalAcrossWorkers is the regression test for float
// ORDER BY over NaN keys: the sort used to disagree with itself between
// the serial and the parallel merge, so the row order changed with the
// worker count. NaN now sorts after every number, ties keep row order,
// and the result equals the plain-Go reference at workers 1, 2 and 8.
func TestOrderByNaNIdenticalAcrossWorkers(t *testing.T) {
	const n = 40000
	ids := make([]int64, n)
	xs := make([]float64, n)
	for i := range ids {
		ids[i] = int64(i)
		xs[i] = float64((i*7919)%1000) / 4
		if i%97 == 0 {
			xs[i] = math.NaN()
		}
	}
	r := rel.MustNew("t", rel.Schema{{Name: "id", Type: bat.Int}, {Name: "x", Type: bat.Float}},
		[]*bat.BAT{bat.FromInts(ids), bat.FromFloats(xs)})
	rows := refOrder(n, -1, func(a, b int) int { return refFloatCmp(xs[a], xs[b]) })
	want := refRelation(t, rows, []string{"id", "x"}, ids, xs)
	checkOrderQuery(t, orderDBs(r), "SELECT id, x FROM t ORDER BY x", want)
}

// TestTopKMatchesReference checks every ORDER BY … LIMIT shape the
// ordering tail serves — output columns in both directions, a two-key
// order, an expression key, a key that is not selected (a hidden sort
// column), DISTINCT and GROUP BY — against plain Go, on a 40,000-row
// table with heavy key ties. Limits cover the heap path and a limit
// large enough to take the full sort's prefix; uncached and cached runs
// must all match bit for bit.
func TestTopKMatchesReference(t *testing.T) {
	const n = 40000
	rng := rand.New(rand.NewSource(3))
	ids := make([]int64, n)
	grp := make([]int64, n)
	val := make([]float64, n)
	w := make([]float64, n)
	for i := range ids {
		ids[i] = int64(i)
		grp[i] = int64(rng.Intn(97))
		val[i] = float64(rng.Intn(400))*0.25 - 20
		w[i] = float64(rng.Intn(997)) * 0.0625 // sums stay exact
	}
	r := rel.MustNew("t", rel.Schema{
		{Name: "id", Type: bat.Int}, {Name: "grp", Type: bat.Int},
		{Name: "val", Type: bat.Float}, {Name: "w", Type: bat.Float},
	}, []*bat.BAT{bat.FromInts(ids), bat.FromInts(grp), bat.FromFloats(val), bat.FromFloats(w)})
	dbs := orderDBs(r)

	// DISTINCT (grp, val) rows in first-occurrence order.
	var dGrp []int64
	var dVal []float64
	seen := map[[2]float64]bool{}
	for i := range ids {
		k := [2]float64{float64(grp[i]), val[i]}
		if !seen[k] {
			seen[k] = true
			dGrp, dVal = append(dGrp, grp[i]), append(dVal, val[i])
		}
	}
	// GROUP BY grp: SUM(w) and COUNT(*), one row per group.
	var gKey []int64
	var gSum []float64
	var gCnt []int64
	at := map[int64]int{}
	for i := range ids {
		j, ok := at[grp[i]]
		if !ok {
			j = len(gKey)
			at[grp[i]] = j
			gKey, gSum, gCnt = append(gKey, grp[i]), append(gSum, 0), append(gCnt, 0)
		}
		gSum[j] += w[i]
		gCnt[j]++
	}

	for _, k := range []int{1, 25, 3000} {
		cases := []struct {
			q    string
			want *rel.Relation
		}{
			{fmt.Sprintf("SELECT id, val FROM t ORDER BY val LIMIT %d", k),
				refRelation(t, refOrder(n, k, func(a, b int) int { return refFloatCmp(val[a], val[b]) }),
					[]string{"id", "val"}, ids, val)},
			{fmt.Sprintf("SELECT id, val FROM t ORDER BY val DESC LIMIT %d", k),
				refRelation(t, refOrder(n, k, func(a, b int) int { return refFloatCmp(val[b], val[a]) }),
					[]string{"id", "val"}, ids, val)},
			{fmt.Sprintf("SELECT grp, val, id FROM t ORDER BY grp, val DESC LIMIT %d", k),
				refRelation(t, refOrder(n, k, func(a, b int) int {
					if grp[a] != grp[b] {
						return int(grp[a] - grp[b])
					}
					return refFloatCmp(val[b], val[a])
				}), []string{"grp", "val", "id"}, grp, val, ids)},
			{fmt.Sprintf("SELECT id, w FROM t ORDER BY w * 2 LIMIT %d", k),
				refRelation(t, refOrder(n, k, func(a, b int) int { return refFloatCmp(w[a]*2, w[b]*2) }),
					[]string{"id", "w"}, ids, w)},
			{fmt.Sprintf("SELECT id FROM t ORDER BY val DESC LIMIT %d", k),
				refRelation(t, refOrder(n, k, func(a, b int) int { return refFloatCmp(val[b], val[a]) }),
					[]string{"id"}, ids)},
			{fmt.Sprintf("SELECT DISTINCT grp, val FROM t ORDER BY val DESC, grp LIMIT %d", k),
				refRelation(t, refOrder(len(dGrp), k, func(a, b int) int {
					if r := refFloatCmp(dVal[b], dVal[a]); r != 0 {
						return r
					}
					return int(dGrp[a] - dGrp[b])
				}), []string{"grp", "val"}, dGrp, dVal)},
			{fmt.Sprintf("SELECT grp AS g, SUM(w) AS s, COUNT(*) AS c FROM t GROUP BY grp ORDER BY s DESC, g LIMIT %d", k),
				refRelation(t, refOrder(len(gKey), k, func(a, b int) int {
					if r := refFloatCmp(gSum[b], gSum[a]); r != 0 {
						return r
					}
					return int(gKey[a] - gKey[b])
				}), []string{"g", "s", "c"}, gKey, gSum, gCnt)},
		}
		for _, tc := range cases {
			checkOrderQuery(t, dbs, tc.q, tc.want)
		}
	}
}
