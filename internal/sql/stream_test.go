package sql

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/rel"
)

// streamDB builds a database with a fact table t of n rows, a 500-row
// dimension table s keyed to t.grp, and a 3-row table u for cross joins.
func streamDB(t *testing.T, n int) *DB {
	t.Helper()
	db := NewDB()

	ids := make([]int64, n)
	grps := make([]int64, n)
	vals := make([]float64, n)
	ws := make([]float64, n)
	tags := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = int64(i)
		grps[i] = int64((i*7919 + 5) % 97)
		vals[i] = float64(i%211)*0.375 - 39.0
		ws[i] = float64((i*31)%997) * 0.0625
		tags[i] = fmt.Sprintf("t%d", i%5)
	}
	fact, err := rel.New("t", rel.Schema{
		{Name: "id", Type: bat.Int},
		{Name: "grp", Type: bat.Int},
		{Name: "val", Type: bat.Float},
		{Name: "w", Type: bat.Float},
		{Name: "tag", Type: bat.String},
	}, []*bat.BAT{bat.FromInts(ids), bat.FromInts(grps), bat.FromFloats(vals), bat.FromFloats(ws), bat.FromStrings(tags)})
	if err != nil {
		t.Fatal(err)
	}
	db.Register("t", fact)

	const dn = 500
	ks := make([]int64, dn)
	bonus := make([]float64, dn)
	labels := make([]string, dn)
	for j := 0; j < dn; j++ {
		ks[j] = int64((j * 13) % 120) // some keys duplicated, some > 96 unmatched
		bonus[j] = float64(j%17) * 0.5
		labels[j] = fmt.Sprintf("L%d", j%11)
	}
	dim, err := rel.New("s", rel.Schema{
		{Name: "k", Type: bat.Int},
		{Name: "bonus", Type: bat.Float},
		{Name: "label", Type: bat.String},
	}, []*bat.BAT{bat.FromInts(ks), bat.FromFloats(bonus), bat.FromStrings(labels)})
	if err != nil {
		t.Fatal(err)
	}
	db.Register("s", dim)

	small, err := rel.New("u", rel.Schema{
		{Name: "uid", Type: bat.Int},
		{Name: "utag", Type: bat.String},
	}, []*bat.BAT{bat.FromInts([]int64{10, 20, 30}), bat.FromStrings([]string{"a", "b", "a"})})
	if err != nil {
		t.Fatal(err)
	}
	db.Register("u", small)
	return db
}

// equalBits compares two relations for bitwise equality: identical
// schemas and, per column, identical float bit patterns (not just ==,
// which would let -0 slide), int values, and strings.
func equalBits(a, b *rel.Relation) error {
	if len(a.Schema) != len(b.Schema) {
		return fmt.Errorf("schema arity %d vs %d", len(a.Schema), len(b.Schema))
	}
	for k := range a.Schema {
		if a.Schema[k] != b.Schema[k] {
			return fmt.Errorf("schema[%d] %+v vs %+v", k, a.Schema[k], b.Schema[k])
		}
	}
	if a.NumRows() != b.NumRows() {
		return fmt.Errorf("%d rows vs %d", a.NumRows(), b.NumRows())
	}
	for k := range a.Cols {
		av, bv := a.Cols[k].Vector(), b.Cols[k].Vector()
		switch a.Schema[k].Type {
		case bat.Float:
			af, bf := av.Floats(), bv.Floats()
			for i := range af {
				if math.Float64bits(af[i]) != math.Float64bits(bf[i]) {
					return fmt.Errorf("col %q row %d: %v (%#x) vs %v (%#x)",
						a.Schema[k].Name, i, af[i], math.Float64bits(af[i]), bf[i], math.Float64bits(bf[i]))
				}
			}
		case bat.Int:
			ai, bi := av.Ints(), bv.Ints()
			for i := range ai {
				if ai[i] != bi[i] {
					return fmt.Errorf("col %q row %d: %d vs %d", a.Schema[k].Name, i, ai[i], bi[i])
				}
			}
		case bat.String:
			as, bs := av.Strings(), bv.Strings()
			for i := range as {
				if as[i] != bs[i] {
					return fmt.Errorf("col %q row %d: %q vs %q", a.Schema[k].Name, i, as[i], bs[i])
				}
			}
		}
	}
	return nil
}

// streamingQueries are the differential shapes: each exercises a
// distinct slice of the streaming planner and runtime.
var streamingQueries = []string{
	// Plain projection with column pruning.
	"SELECT id, val, tag FROM t;",
	// Fused scan: predicate conjuncts and expression projection.
	"SELECT id, val * 2 + w AS z FROM t WHERE val > 0 AND id % 3 = 1;",
	// Inner join with pushdown into both sides and a pre-sized build.
	"SELECT t.id, t.val, s.bonus FROM t JOIN s ON t.grp = s.k WHERE s.bonus > 2 AND t.val > 0;",
	// LEFT JOIN with probe-side pushdown (every t.grp has a match).
	"SELECT t.id, s.label FROM t LEFT JOIN s ON t.grp = s.k WHERE t.val > 0;",
	// LEFT JOIN where every t.id >= 120 is unmatched: zero padding in
	// the int, float and string domains.
	"SELECT t.id, s.k, s.bonus, s.label FROM t LEFT JOIN s ON t.id = s.k WHERE t.val > 0;",
	// All five aggregates over grouped streaming accumulation.
	"SELECT grp AS g, COUNT(*) AS n, SUM(val) AS sv, AVG(w) AS aw, MIN(val) AS mv, MAX(w) AS xw FROM t GROUP BY grp ORDER BY g;",
	// Unaliased group key (the dialect renames it g0) — naming parity.
	"SELECT grp, COUNT(*) AS n FROM t GROUP BY grp;",
	// A repeated alias over aggregates: the second column is renamed.
	"SELECT grp AS g, MIN(val) AS m, MIN(val) AS m FROM t GROUP BY grp ORDER BY g;",
	// Join into grouping with HAVING, descending order, and limit.
	"SELECT s.label, SUM(t.val) AS sv, COUNT(*) AS n FROM t JOIN s ON t.grp = s.k GROUP BY s.label HAVING COUNT(*) > 10 ORDER BY sv DESC LIMIT 5;",
	// DISTINCT over the streamed projection.
	"SELECT DISTINCT tag FROM t;",
	// Cross join with a mixed-side predicate and early-stop limit.
	"SELECT t.id, u.utag FROM t CROSS JOIN u WHERE u.utag = 'a' AND t.id % 7 = 0 LIMIT 50;",
	// Subquery in FROM: the inner SELECT streams too.
	"SELECT id, val FROM (SELECT id, val, grp FROM t WHERE id % 2 = 0) WHERE val < 10;",
	// ORDER BY a column that is not selected: projected as a hidden
	// sort column and dropped from the result.
	"SELECT tag, id FROM t ORDER BY val, id;",
	// A hidden expression key after a selected one, with a limit.
	"SELECT t.id, s.label FROM t JOIN s ON t.grp = s.k ORDER BY s.label DESC, t.val * 2 + s.bonus LIMIT 40;",
	// Global aggregate without GROUP BY.
	"SELECT COUNT(*) AS n, SUM(val) AS sv FROM t WHERE val > 1000;",
}

// refTables returns the named relations of db, for the reference
// evaluator.
func refTables(t *testing.T, db *DB, names ...string) map[string]*rel.Relation {
	t.Helper()
	tables := make(map[string]*rel.Relation, len(names))
	for _, name := range names {
		r, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		tables[name] = r
	}
	return tables
}

// TestStreamingMatchesReference pins the streaming pipeline to the
// reference evaluator (refQuery): for every query shape, row counts
// straddling the morsel edges, and worker budgets 1, 2 and 8, the
// engine's relation must match the reference bit for bit.
func TestStreamingMatchesReference(t *testing.T) {
	sizes := []int{0, 1, bat.MorselSize - 1, bat.MorselSize, bat.MorselSize + 1, 3 * bat.MorselSize}
	for _, n := range sizes {
		db := streamDB(t, n)
		tables := refTables(t, db, "t", "s", "u")
		for qi, q := range streamingQueries {
			want, err := refQuery(tables, q)
			if err != nil {
				t.Fatalf("n=%d query %d reference: %v", n, qi, err)
			}
			for _, workers := range []int{1, 2, 8} {
				got, err := db.QueryWith(q, &core.Options{Parallelism: workers})
				if err != nil {
					t.Fatalf("n=%d workers=%d query %d: %v", n, workers, qi, err)
				}
				if err := checkReference(got, want); err != nil {
					t.Fatalf("n=%d workers=%d query %d (%s): %v", n, workers, qi, q, err)
				}
			}
		}
	}
}

// TestStatementErrorsGolden pins the user-facing text of planning
// errors, on the parse path and on the plan-cache path (cold and hit).
// No message may name an internal column.
func TestStatementErrorsGolden(t *testing.T) {
	unknown := func(col string) string { return `sql: unknown column "` + col + `"` }
	sumOverString := "sql: aggregate SUM over non-numeric input"
	oc := newOracleCatalog(t, rand.New(rand.NewSource(1)), 0)
	for _, tc := range []struct {
		db      *DB
		q, want string
	}{
		{streamDB(t, 100), "SELECT nosuch FROM t;", unknown("nosuch")},
		{streamDB(t, 100), "SELECT id FROM t JOIN t ON id = id;", `sql: ambiguous column "id"`},
		{streamDB(t, 100), "SELECT grp FROM t LEFT JOIN s ON t.val > s.bonus;", "sql: LEFT JOIN requires an equi-join condition"},
		{streamDB(t, 100), "SELECT id FROM t HAVING id > 1;", "sql: HAVING without aggregation"},
		{streamDB(t, 100), "SELECT id FROM t GROUP BY grp;", "rel: group by without aggregates"},
		{streamDB(t, 100), "SELECT MIN(*) FROM t;", "sql: MIN(*) not supported"},
		{streamDB(t, 100), "SELECT SUM(tag) FROM t;", sumOverString},
		{streamDB(t, 100), "SELECT tag + 1 FROM t;", "sql: arithmetic over strings"},
		// ORDER BY on an unaliased group key: the key is renamed g0, so
		// the sort column does not resolve.
		{streamDB(t, 100), "SELECT grp, COUNT(*) AS n FROM t GROUP BY grp ORDER BY grp;", unknown("grp")},
		// Under DISTINCT a sort key must be selected.
		{streamDB(t, 100), "SELECT DISTINCT tag FROM t ORDER BY val;", unknown("val")},
		{streamDB(t, 100), "SELECT tag FROM t ORDER BY val + nosuch;", unknown("nosuch")},
		// The oracle's invalid statements.
		{oc.stream, "SELECT nosuch FROM f;", unknown("nosuch")},
		{oc.stream, "SELECT SUM(s) AS x FROM f;", sumOverString},
		{oc.stream, "SELECT id FROM f HAVING id > 1;", "sql: HAVING without aggregation"},
		{oc.stream, "SELECT f.id, d.b FROM f LEFT JOIN d ON f.v > d.b;", "sql: LEFT JOIN requires an equi-join condition"},
		{oc.stream, "SELECT v FROM f ORDER BY nosuch;", unknown("nosuch")},
	} {
		for _, cached := range []bool{false, true, true} {
			tc.db.SetPlanCache(cached)
			_, err := tc.db.Query(tc.q)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("%s (cached=%v): error %v, want %q", tc.q, cached, err, tc.want)
			}
		}
	}
}

// TestStreamingPeakMemoryWin bounds the accounted arena peak of a
// filter → join → group-by statement: streamed morsel-at-a-time, it
// must stay within 8 bytes per joined row — half of the two int pair
// arrays (16 bytes per joined row) a join that materializes its matches
// would hold before gathering a single column. The joined row count is
// the statement's own COUNT(*).
func TestStreamingPeakMemoryWin(t *testing.T) {
	const n = 1 << 16
	const budget = 256 << 20
	q := "SELECT grp AS g, SUM(val) AS sv, COUNT(*) AS cnt FROM t JOIN s ON t.grp = s.k WHERE t.val > 0 GROUP BY grp ORDER BY g;"

	db := streamDB(t, n)
	gov := exec.NewGovernor(1<<30, 8)
	db.SetGovernor(gov)
	db.SetRMAOptions(&core.Options{Tenant: "streamside", MemoryBudget: budget})
	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	var joined int64
	for _, c := range res.Cols[2].Vector().Ints() {
		joined += c
	}
	peak := gov.Tenant("streamside", budget).PeakBytes()
	if peak <= 0 || joined == 0 {
		t.Fatalf("vacuous run: peak=%d joined rows=%d", peak, joined)
	}
	if peak > 8*joined {
		t.Fatalf("streamed peak %d bytes exceeds 8 B x %d joined rows = %d", peak, joined, 8*joined)
	}
	t.Logf("peak arena bytes %d for %d joined rows (bound %d)", peak, joined, 8*joined)
}

// TestStreamingPipelineStats checks the observability surface: a
// streamed statement leaves per-stage morsel counters behind, and the
// scan stage accounts every input row.
func TestStreamingPipelineStats(t *testing.T) {
	n := 2*bat.MorselSize + 100
	db := streamDB(t, n)
	if _, err := db.Query("SELECT t.id, s.bonus FROM t JOIN s ON t.grp = s.k WHERE t.val > 0;"); err != nil {
		t.Fatal(err)
	}
	stats := db.PipelineStats()
	if len(stats) == 0 {
		t.Fatal("no pipeline stats after a streamed statement")
	}
	byName := map[string]exec.StageStats{}
	for _, st := range stats {
		byName[st.Name] = st
	}
	scan, ok := byName["scan(t)"]
	if !ok {
		t.Fatalf("no scan(t) stage in %v", stats)
	}
	if scan.Rows >= int64(n) {
		t.Fatalf("scan emitted %d rows; the fused predicate should drop some of %d", scan.Rows, n)
	}
	if scan.Batches < 2 {
		t.Fatalf("scan emitted %d batches, want several at n=%d", scan.Batches, n)
	}
	if _, ok := byName["join"]; !ok {
		t.Fatalf("no join stage in %v", stats)
	}
	if _, ok := byName["project"]; !ok {
		t.Fatalf("no project stage in %v", stats)
	}
}
