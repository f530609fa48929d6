package sql

import (
	"math/rand"
	"testing"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/rel"
)

// serveJoinGroup is the join_group statement of the rmaperf serve
// workload.
const serveJoinGroup = "SELECT grp AS g, SUM(val) AS sv, SUM(w) AS sw, COUNT(*) AS n " +
	"FROM t JOIN s ON t.grp = s.k WHERE t.val > 0 GROUP BY grp ORDER BY g"

// serveDB generates the serve workload's catalog: a 65,536-row fact
// table t(grp, val, w) and a 500-row dimension s(k, bonus).
func serveDB(tb testing.TB, seed int64) *DB {
	tb.Helper()
	const factRows, dimRows = 65536, 500
	rng := rand.New(rand.NewSource(seed))
	grp, val, w := make([]int64, factRows), make([]float64, factRows), make([]float64, factRows)
	for i := range grp {
		grp[i] = int64(rng.Intn(97))
		val[i] = float64(rng.Intn(400))*0.25 - 20
		w[i] = float64(rng.Intn(997)) * 0.0625
	}
	k, bonus := make([]int64, dimRows), make([]float64, dimRows)
	for j := range k {
		k[j] = int64(rng.Intn(120))
		bonus[j] = float64(rng.Intn(17)) * 0.5
	}
	db := NewDB()
	db.Register("t", rel.MustNew("t", rel.Schema{{Name: "grp", Type: bat.Int}, {Name: "val", Type: bat.Float}, {Name: "w", Type: bat.Float}},
		[]*bat.BAT{bat.FromInts(grp), bat.FromFloats(val), bat.FromFloats(w)}))
	db.Register("s", rel.MustNew("s", rel.Schema{{Name: "k", Type: bat.Int}, {Name: "bonus", Type: bat.Float}},
		[]*bat.BAT{bat.FromInts(k), bat.FromFloats(bonus)}))
	return db
}

// BenchmarkServeJoinGroup runs the serve workload's slowest statement
// (filter, join, group, order) through the plan cache at two workers,
// as the server runs it. Profile with -cpuprofile to see the split
// between scan, probe and grouping.
func BenchmarkServeJoinGroup(b *testing.B) {
	db := serveDB(b, 1)
	opts := &core.Options{Parallelism: 2}
	if _, err := db.QueryWith(serveJoinGroup, opts); err != nil { // plan and cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.QueryWith(serveJoinGroup, opts)
		if err != nil {
			b.Fatal(err)
		}
		benchRows = res.NumRows()
	}
}

// benchRows keeps the benchmarked statement's result live.
var benchRows int
