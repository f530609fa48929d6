package sql

import (
	"errors"
	"testing"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/rel"
)

// spillQuery runs a high-fanout equi-join (every probe row matches 128
// build rows, 1Mi pairs in all) through grouping and a final sort.
const spillQuery = `SELECT p.k AS g, COUNT(*) AS cnt FROM p JOIN b ON p.k = b.k
	GROUP BY p.k ORDER BY g`

// fanoutDB registers the narrow join inputs: 8Ki probe rows and 2Ki
// build rows over 16 shared key values — 1Mi join pairs.
func fanoutDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	const pn, bn = 1 << 13, 2048
	pk := make([]int64, pn)
	for i := range pk {
		pk[i] = int64(i % 16)
	}
	bk := make([]int64, bn)
	for i := range bk {
		bk[i] = int64(i % 16)
	}
	db.Register("p", rel.MustNew("p", rel.Schema{{Name: "k", Type: bat.Int}},
		[]*bat.BAT{bat.FromInts(pk)}))
	db.Register("b", rel.MustNew("b", rel.Schema{{Name: "k", Type: bat.Int}},
		[]*bat.BAT{bat.FromInts(bk)}))
	return db
}

// TestSpillDifferentialSelfCalibrated is the out-of-core correctness
// oracle on the high-fanout join-group statement (see spillDifferential).
func TestSpillDifferentialSelfCalibrated(t *testing.T) {
	spillDifferential(t, fanoutDB, spillQuery)
}

// spillDifferential pins the out-of-core contract of one statement,
// calibrated against the machine instead of hard-coded byte counts:
//
//  1. with a one-byte spill threshold, which sends every spill consumer
//     to disk, the result at workers 1, 2 and 8 is bitwise identical to
//     the unbudgeted in-memory reference, spill events are recorded,
//     and the tenant holds no live bytes afterwards;
//  2. a budget below the statement's measured serial peak P fails every
//     rung of the retry ladder (normal, serial, serial with spill
//     forced) and surfaces the typed ErrMemoryBudget with no stranded
//     bytes.
func spillDifferential(t *testing.T, newDB func(*testing.T) *DB, q string) {
	t.Helper()
	gov := exec.NewGovernor(0, 0)
	want, err := newDB(t).QueryWith(q, &core.Options{Tenant: "calib", Governor: gov, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	peak := gov.Tenant("calib", 0).PeakBytes()
	if peak == 0 {
		t.Fatal("calibration run charged nothing; peak measurement is vacuous")
	}
	t.Logf("serial streamed peak P = %d bytes", peak)

	for _, workers := range []int{1, 2, 8} {
		db := newDB(t)
		db.SetSpill(t.TempDir(), 1)
		gv := exec.NewGovernor(0, 0)
		got, err := db.QueryWith(q, &core.Options{Tenant: "oo", Governor: gv, Parallelism: workers})
		if err != nil {
			t.Fatalf("workers=%d: spilled run failed: %v", workers, err)
		}
		if err := equalBits(want, got); err != nil {
			t.Fatalf("workers=%d: spilled result differs from reference: %v", workers, err)
		}
		st := db.SpillStats()
		if st.Events == 0 || st.SpilledBytes == 0 {
			t.Fatalf("workers=%d: no spill activity recorded (%+v)", workers, st)
		}
		if live := gv.Tenant("oo", 0).LiveBytes(); live != 0 {
			t.Fatalf("workers=%d: tenant live = %d after the statement, want 0", workers, live)
		}
		t.Logf("workers=%d: spilled %d bytes across %d partitions (%d events)",
			workers, st.SpilledBytes, st.Partitions, st.Events)
	}

	db := newDB(t)
	db.SetSpill(t.TempDir(), 0) // threshold derives budget/2 at decision time
	tight := exec.NewGovernor(0, 0)
	_, err = db.QueryWith(q, &core.Options{
		Tenant: "tight", Governor: tight, MemoryBudget: peak / 2, Parallelism: 8,
	})
	if !errors.Is(err, exec.ErrMemoryBudget) {
		t.Fatalf("budget %d below the peak %d: error = %v, want ErrMemoryBudget", peak/2, peak, err)
	}
	if live := tight.Tenant("tight", 0).LiveBytes(); live != 0 {
		t.Fatalf("tenant live = %d after the failed statement, want 0", live)
	}
}

// wideSpillQuery joins the wide probe table and aggregates every value
// column of the 1Mi join pairs.
const wideSpillQuery = `SELECT p.k AS g, SUM(p.v0) AS s0, SUM(p.v1) AS s1,
	SUM(p.v2) AS s2, SUM(p.v3) AS s3, SUM(p.v4) AS s4, SUM(p.v5) AS s5,
	COUNT(*) AS cnt FROM p JOIN b ON p.k = b.k GROUP BY p.k ORDER BY g`

// wideFanoutDB is fanoutDB with six float value columns on the probe
// side: same 1Mi join pairs, each carrying six gathered values.
func wideFanoutDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	const pn, bn = 1 << 13, 2048
	pk := make([]int64, pn)
	vals := make([][]float64, 6)
	for v := range vals {
		vals[v] = make([]float64, pn)
	}
	for i := range pk {
		pk[i] = int64(i % 16)
		for v := range vals {
			vals[v][i] = float64((i*31+v*7)%257) / 16
		}
	}
	bk := make([]int64, bn)
	for i := range bk {
		bk[i] = int64(i % 16)
	}
	schema := rel.Schema{{Name: "k", Type: bat.Int}}
	cols := []*bat.BAT{bat.FromInts(pk)}
	for v := range vals {
		schema = append(schema, rel.Attr{Name: "v" + string(rune('0'+v)), Type: bat.Float})
		cols = append(cols, bat.FromFloats(vals[v]))
	}
	db.Register("p", rel.MustNew("p", schema, cols))
	db.Register("b", rel.MustNew("b", rel.Schema{{Name: "k", Type: bat.Int}},
		[]*bat.BAT{bat.FromInts(bk)}))
	return db
}

// TestSpillDifferentialWideSelfCalibrated is the wide-table leg of the
// out-of-core oracle: the same contract on a statement that aggregates
// six value columns through the join.
func TestSpillDifferentialWideSelfCalibrated(t *testing.T) {
	spillDifferential(t, wideFanoutDB, wideSpillQuery)
}

// TestSpillConsumersIsolated attributes proactive (threshold-crossing)
// spill traffic to each disk-backed operator separately, by running a
// statement whose plan contains exactly one spillable consumer and
// checking the spilled result against a no-spill run of the same
// statement at the same worker count.
func TestSpillConsumersIsolated(t *testing.T) {
	const n = 1 << 15
	cases := []struct {
		name  string
		query string
	}{
		// No join, no sort: the only spillable operator is the grouped
		// aggregation (freeze-and-divert).
		{"agg", "SELECT id, SUM(val) AS sv, COUNT(*) AS cnt FROM t GROUP BY id"},
		// No join, no grouping: only the final sort can spill (per-run
		// files plus k-way merge; workers > 1). No LIMIT: a small one
		// selects through bounded heaps, with no sort to spill.
		{"sort", "SELECT id, val, tag FROM t ORDER BY val DESC, id"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := streamDB(t, n).QueryWith(tc.query, &core.Options{Parallelism: 8})
			if err != nil {
				t.Fatal(err)
			}
			db := streamDB(t, n)
			db.SetSpill(t.TempDir(), 1<<12) // well under every operator's estimate
			got, err := db.QueryWith(tc.query, &core.Options{Parallelism: 8})
			if err != nil {
				t.Fatal(err)
			}
			st := db.SpillStats()
			if st.Events == 0 || st.SpilledBytes == 0 {
				t.Fatalf("%s consumer never spilled (%+v)", tc.name, st)
			}
			if err := equalBits(want, got); err != nil {
				t.Fatalf("%s: spilled result differs: %v", tc.name, err)
			}
		})
	}
}
