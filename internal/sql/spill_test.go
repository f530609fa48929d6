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
// build rows) through grouping and a final sort. On narrow single-key
// tables the pair arrays are the statement's dominant transient, which
// is exactly what the out-of-core join stages to disk — so spilling
// moves the resident peak by a margin the differential test can
// calibrate a budget into.
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
// oracle, calibrated against the machine instead of hard-coded byte
// counts. It measures two serial peaks of the same statement on the
// materializing path (the retry ladder's last rung): P unbudgeted and
// in memory, S with every spill consumer forced to disk. The
// differential budget is the midpoint — by measurement the in-memory
// plan cannot fit (needs P) and the spilled plan must (needs S) — and
// the test pins:
//
//  1. spilling lowers the resident footprint at all (S < P),
//  2. without spilling the budget fails with the typed error and no
//     stranded bytes,
//  3. with spilling the same budget succeeds at workers 1, 2, and 8,
//     staging nonzero bytes to disk while the ledger stays under the
//     budget,
//  4. every spilled result is bitwise identical to the unbudgeted
//     in-memory reference.
func TestSpillDifferentialSelfCalibrated(t *testing.T) {
	// Calibration endpoint 1: unbudgeted, accounted, serial, in memory.
	ref := fanoutDB(t)
	ref.SetStreaming(false)
	gov := exec.NewGovernor(0, 0)
	want, err := ref.QueryWith(spillQuery, &core.Options{
		Tenant: "calib", Governor: gov, Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	peak := gov.Tenant("calib", 0).PeakBytes()
	if peak == 0 {
		t.Fatal("calibration run charged nothing; peak measurement is vacuous")
	}

	// Calibration endpoint 2: same statement with a one-byte threshold,
	// so every estimate-gated consumer takes its disk path.
	shed := fanoutDB(t)
	shed.SetStreaming(false)
	shed.SetSpill(t.TempDir(), 1)
	sgov := exec.NewGovernor(0, 0)
	spilledRes, err := shed.QueryWith(spillQuery, &core.Options{
		Tenant: "calib", Governor: sgov, Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := equalBits(want, spilledRes); err != nil {
		t.Fatalf("fully-spilled result differs from in-memory reference: %v", err)
	}
	if st := shed.SpillStats(); st.Events == 0 {
		t.Fatal("one-byte threshold produced no spill events; calibration is vacuous")
	}
	spilledPeak := sgov.Tenant("calib", 0).PeakBytes()
	if spilledPeak >= peak {
		t.Fatalf("spilling did not reduce the resident peak: %d spilled vs %d in-memory", spilledPeak, peak)
	}
	budget := (peak + spilledPeak) / 2
	t.Logf("serial peaks: %d in-memory, %d spilled; differential budget %d", peak, spilledPeak, budget)

	// Without spilling the midpoint budget must not fit: the ladder
	// runs out of rungs and surfaces the typed error.
	noSpill := fanoutDB(t)
	noSpill.SetStreaming(false)
	tight := exec.NewGovernor(0, 0)
	_, err = noSpill.QueryWith(spillQuery, &core.Options{
		Tenant: "tight", Governor: tight, MemoryBudget: budget, Parallelism: 8,
	})
	if err == nil {
		t.Fatalf("statement fit in %d bytes without spilling; calibration did not constrain it", budget)
	}
	if !errors.Is(err, exec.ErrMemoryBudget) {
		t.Fatalf("error = %v, want ErrMemoryBudget", err)
	}
	if live := tight.Tenant("tight", 0).LiveBytes(); live != 0 {
		t.Fatalf("tenant live = %d after the failed statement, want 0", live)
	}

	// With spilling, the same budget succeeds at every worker count and
	// reproduces the reference bit for bit.
	for _, workers := range []int{1, 2, 8} {
		db := fanoutDB(t)
		db.SetStreaming(false)
		db.SetSpill(t.TempDir(), 0) // threshold derives budget/2 at decision time
		gv := exec.NewGovernor(0, 0)
		got, err := db.QueryWith(spillQuery, &core.Options{
			Tenant: "oo", Governor: gv, MemoryBudget: budget, Parallelism: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: spilling run failed under budget %d: %v", workers, budget, err)
		}
		if err := equalBits(want, got); err != nil {
			t.Fatalf("workers=%d: spilled result differs from reference: %v", workers, err)
		}
		st := db.SpillStats()
		if st.Events == 0 || st.SpilledBytes == 0 {
			t.Fatalf("workers=%d: no spill activity recorded (%+v); the budget run fit in memory", workers, st)
		}
		tn := gv.Tenant("oo", 0)
		if p := tn.PeakBytes(); p > budget {
			t.Fatalf("workers=%d: ledger peak %d exceeds budget %d", workers, p, budget)
		}
		if live := tn.LiveBytes(); live != 0 {
			t.Fatalf("workers=%d: tenant live = %d after the statement, want 0", workers, live)
		}
		t.Logf("workers=%d: spilled %d bytes across %d partitions (%d events)",
			workers, st.SpilledBytes, st.Partitions, st.Events)
	}
}

// wideSpillQuery joins the wide probe table and aggregates every value
// column, so the materialized join result — 8 columns over 1Mi pairs —
// is the statement's dominant transient instead of the pair arrays.
const wideSpillQuery = `SELECT p.k AS g, SUM(p.v0) AS s0, SUM(p.v1) AS s1,
	SUM(p.v2) AS s2, SUM(p.v3) AS s3, SUM(p.v4) AS s4, SUM(p.v5) AS s5,
	COUNT(*) AS cnt FROM p JOIN b ON p.k = b.k GROUP BY p.k ORDER BY g`

// wideFanoutDB is fanoutDB with six float value columns on the probe
// side: same 1Mi join pairs, but the gathered column intermediates now
// dominate the join's footprint the way wide tables do in practice.
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
// out-of-core oracle. Before the join staged its gathered column
// intermediates, a spilled wide join held every destination column in
// flight through the whole pair pass and could peak *above* the
// in-memory path; this test pins the fixed behavior: the spilled wide
// peak measures below the in-memory peak, the midpoint budget rejects
// the in-memory plan with the typed error, and the spilled plan fits it
// while reproducing the reference bit for bit.
func TestSpillDifferentialWideSelfCalibrated(t *testing.T) {
	ref := wideFanoutDB(t)
	ref.SetStreaming(false)
	gov := exec.NewGovernor(0, 0)
	want, err := ref.QueryWith(wideSpillQuery, &core.Options{
		Tenant: "calib", Governor: gov, Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	peak := gov.Tenant("calib", 0).PeakBytes()
	if peak == 0 {
		t.Fatal("calibration run charged nothing; peak measurement is vacuous")
	}

	shed := wideFanoutDB(t)
	shed.SetStreaming(false)
	shed.SetSpill(t.TempDir(), 1)
	sgov := exec.NewGovernor(0, 0)
	spilledRes, err := shed.QueryWith(wideSpillQuery, &core.Options{
		Tenant: "calib", Governor: sgov, Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := equalBits(want, spilledRes); err != nil {
		t.Fatalf("fully-spilled wide result differs from in-memory reference: %v", err)
	}
	if st := shed.SpillStats(); st.Events == 0 {
		t.Fatal("one-byte threshold produced no spill events; calibration is vacuous")
	}
	spilledPeak := sgov.Tenant("calib", 0).PeakBytes()
	if spilledPeak >= peak {
		t.Fatalf("wide-join spill did not reduce the resident peak: %d spilled vs %d in-memory", spilledPeak, peak)
	}
	budget := (peak + spilledPeak) / 2
	t.Logf("wide serial peaks: %d in-memory, %d spilled; differential budget %d", peak, spilledPeak, budget)

	noSpill := wideFanoutDB(t)
	noSpill.SetStreaming(false)
	tight := exec.NewGovernor(0, 0)
	_, err = noSpill.QueryWith(wideSpillQuery, &core.Options{
		Tenant: "tight", Governor: tight, MemoryBudget: budget, Parallelism: 8,
	})
	if err == nil {
		t.Fatalf("wide statement fit in %d bytes without spilling; calibration did not constrain it", budget)
	}
	if !errors.Is(err, exec.ErrMemoryBudget) {
		t.Fatalf("error = %v, want ErrMemoryBudget", err)
	}
	if live := tight.Tenant("tight", 0).LiveBytes(); live != 0 {
		t.Fatalf("tenant live = %d after the failed statement, want 0", live)
	}

	for _, workers := range []int{1, 8} {
		db := wideFanoutDB(t)
		db.SetStreaming(false)
		db.SetSpill(t.TempDir(), 0)
		gv := exec.NewGovernor(0, 0)
		got, err := db.QueryWith(wideSpillQuery, &core.Options{
			Tenant: "oo", Governor: gv, MemoryBudget: budget, Parallelism: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: wide spilling run failed under budget %d: %v", workers, budget, err)
		}
		if err := equalBits(want, got); err != nil {
			t.Fatalf("workers=%d: wide spilled result differs from reference: %v", workers, err)
		}
		st := db.SpillStats()
		if st.Events == 0 || st.SpilledBytes == 0 {
			t.Fatalf("workers=%d: no spill activity recorded (%+v)", workers, st)
		}
		tn := gv.Tenant("oo", 0)
		if p := tn.PeakBytes(); p > budget {
			t.Fatalf("workers=%d: ledger peak %d exceeds budget %d", workers, p, budget)
		}
		if live := tn.LiveBytes(); live != 0 {
			t.Fatalf("workers=%d: tenant live = %d after the statement, want 0", workers, live)
		}
	}
}

// TestSpillConsumersIsolated attributes proactive (threshold-crossing)
// spill traffic to each disk-backed operator separately, by running a
// statement whose plan contains exactly one spillable consumer and
// checking the spilled result against a no-spill run of the same
// statement at the same worker count.
func TestSpillConsumersIsolated(t *testing.T) {
	const n = 1 << 15
	cases := []struct {
		name      string
		query     string
		streaming bool
	}{
		// Streaming plan, no join, no sort: the only spillable operator
		// is the grouped aggregation (freeze-and-divert).
		{"agg", "SELECT id, SUM(val) AS sv, COUNT(*) AS cnt FROM t GROUP BY id", true},
		// Streaming plan, no join, no grouping: only the final sort can
		// spill (per-run files plus k-way merge; workers > 1). No LIMIT:
		// a small one selects through bounded heaps, with no sort to spill.
		{"sort", "SELECT id, val, tag FROM t ORDER BY val DESC, id", true},
		// Materialized plan, no grouping, no sort: only the hash join's
		// partitioned pair staging can spill.
		{"join", "SELECT t.id, t.val, s.bonus FROM t JOIN s ON t.grp = s.k", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain := streamDB(t, n)
			plain.SetStreaming(tc.streaming)
			want, err := plain.QueryWith(tc.query, &core.Options{Parallelism: 8})
			if err != nil {
				t.Fatal(err)
			}
			db := streamDB(t, n)
			db.SetStreaming(tc.streaming)
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
