package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/batlin"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/rel"
	"repro/internal/sql"
	"repro/internal/store"
)

// KernelResult is one row of the machine-readable benchmark file that
// cmd/rmabench -json emits: a kernel, its problem size, and the measured
// throughput and allocation behavior. Future PRs compare their BENCH_<n>
// files against earlier ones to track the perf trajectory.
type KernelResult struct {
	Op          string  `json:"op"`
	Size        int     `json:"size"` // rows of the dominant operand
	Cols        int     `json:"cols,omitempty"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// PeakBytes is the peak accounted arena footprint of one operation,
	// measured under a dedicated tenant outside the timed loop. Only the
	// end-to-end statement kernels report it; zero elsewhere.
	PeakBytes int64 `json:"peak_bytes,omitempty"`
}

// KernelReport is the top-level document of a BENCH_<n>.json file.
type KernelReport struct {
	GoVersion   string         `json:"go_version"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	Parallelism int            `json:"parallelism"`
	Timestamp   string         `json:"timestamp"`
	Results     []KernelResult `json:"results"`
}

// measureRounds is how many independent testing.Benchmark rounds each
// kernel gets; the fastest round is reported. On an otherwise idle
// machine interference only ever adds time, so the minimum is the
// robust estimator — single-round reports made the BENCH_<n>
// trajectory a coin flip against benchdiff's 20% tolerance whenever
// the host scheduler had a bad moment.
const measureRounds = 3

func measure(op string, size, cols int, f func(b *testing.B)) KernelResult {
	best := testing.Benchmark(f)
	for i := 1; i < measureRounds; i++ {
		if r := testing.Benchmark(f); r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	return KernelResult{
		Op:          op,
		Size:        size,
		Cols:        cols,
		NsPerOp:     float64(best.NsPerOp()),
		AllocsPerOp: best.AllocsPerOp(),
		BytesPerOp:  best.AllocedBytesPerOp(),
	}
}

// MicroKernels measures the hot kernels of every execution layer: the raw
// BAT elementwise/reduction kernels, the column-at-a-time matrix
// operations of batlin, the dense matmul, two end-to-end RMA operations at
// the paper's benchmark sizes (Table 4 add, Table 6 qqr), and the parallel
// relational operators (hash join, grouped aggregation, sort index) plus
// the zero-suppressed add.
// A setup failure is an error, not a silently missing row — trajectory
// diffs between BENCH_<n> files must be able to trust completeness.
func MicroKernels(quick bool) ([]KernelResult, error) {
	rows := 1 << 20
	wideRows, wideCols := 1000, 1000
	qqrRows, qqrCols := 20000, 20
	mmuRows, mmuK := 4096, 64
	matmulN := 256
	if quick {
		rows = 1 << 16
		wideRows, wideCols = 200, 200
		qqrRows, qqrCols = 2000, 10
		mmuRows, mmuK = 512, 16
		matmulN = 64
	}

	var out []KernelResult

	x := bat.FromFloats(seqFloats(rows, 1))
	y := bat.FromFloats(seqFloats(rows, 2))
	out = append(out,
		measure("bat.Add", rows, 1, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bat.Release(nil, bat.Add(nil, x, y))
			}
		}),
		measure("bat.Dot", rows, 1, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bat.Dot(nil, x, y)
			}
		}),
		measure("bat.Sum", rows, 1, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bat.Sum(nil, x)
			}
		}),
	)

	ma := columnsOf(mmuRows, mmuK, 3)
	mb := columnsOf(mmuK, mmuK, 4)
	out = append(out, measure("batlin.MMU", mmuRows, mmuK, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := batlin.MMU(nil, ma, mb)
			if err != nil {
				b.Fatal(err)
			}
			for _, c := range res {
				bat.Release(nil, c)
			}
		}
	}))

	mx := matrix.New(matmulN, matmulN)
	my := matrix.New(matmulN, matmulN)
	for i := range mx.Data {
		mx.Data[i] = float64(i % 97)
		my.Data[i] = float64(i % 89)
	}
	out = append(out, measure("linalg.MatMul", matmulN, matmulN, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			linalg.MatMul(nil, mx, my)
		}
	}))

	// Blocked variants of the dense kernels: the same multiply over a
	// 4×4 tile grid, serially (the acceptance bar is parity with the
	// flat path) and under a 4-worker budget (where the fixed-order
	// tile accumulation fans out), plus a blocked Householder QR.
	bx, err := matrix.BlockOf(nil, mx, matmulN/4)
	if err != nil {
		return nil, fmt.Errorf("bench: blocked matmul setup: %w", err)
	}
	by, err := matrix.BlockOf(nil, my, matmulN/4)
	if err != nil {
		return nil, fmt.Errorf("bench: blocked matmul setup: %w", err)
	}
	cSerial, c4 := exec.New(1), exec.New(4)
	out = append(out, measure("linalg.MatMul(blocked)", matmulN, matmulN, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := linalg.MatMulBlocked(cSerial, bx, by)
			if err != nil {
				b.Fatal(err)
			}
			res.Free(cSerial)
		}
	}))
	out = append(out, measure("linalg.MatMul(blocked-4w)", matmulN, matmulN, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := linalg.MatMulBlocked(c4, bx, by)
			if err != nil {
				b.Fatal(err)
			}
			res.Free(c4)
		}
	}))
	out = append(out, measure("linalg.QR(blocked)", matmulN, matmulN, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := linalg.QRBlocked(c4, bx); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// Regression guard for the per-worker fan-out threshold: a 64³
	// multiply (exactly one parallelThreshold of flops) under a wide
	// worker budget must stay serial — the old total-flops heuristic
	// fanned out 8 goroutines here and paid their setup for nothing.
	midN := 64
	m8 := exec.New(8)
	sx, sy := matrix.New(midN, midN), matrix.New(midN, midN)
	for i := range sx.Data {
		sx.Data[i] = float64(i % 101)
		sy.Data[i] = float64(i % 103)
	}
	out = append(out, measure("linalg.MatMul(serial-mid)", midN, midN, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			linalg.MatMul(m8, sx, sy)
		}
	}))

	wr := dataset.Uniform(wideRows, wideCols, 3)
	ws, err := dataset.Uniform(wideRows, wideCols, 4).Rename(map[string]string{"k": "k2"})
	if err != nil {
		return nil, fmt.Errorf("bench: table4 setup: %w", err)
	}
	out = append(out, measure("core.Add(table4)", wideRows, wideCols, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Add(wr, []string{"k"}, ws, []string{"k2"},
				&core.Options{SortMode: core.SortOptimized}); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// Concurrent mixed-budget queries: one serial and one 8-wide core.Add
	// run simultaneously, each under its own per-invocation execution
	// context (the workload the Ctx refactor makes race-free; before it,
	// both invocations fought over a process-wide worker knob).
	out = append(out, measure("core.Add(mixed-budget x2)", wideRows, wideCols, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for _, workers := range []int{1, 8} {
				wg.Add(1)
				go func(workers int) {
					defer wg.Done()
					if _, err := core.Add(wr, []string{"k"}, ws, []string{"k2"},
						&core.Options{SortMode: core.SortOptimized, Parallelism: workers}); err != nil {
						b.Error(err)
					}
				}(workers)
			}
			wg.Wait()
		}
	}))

	// Arena pressure: the same ADD once on the shared (unaccounted)
	// arena and once through a budgeted tenant arena, so the trajectory
	// tracks what the per-tenant byte accounting (ledger + budget check
	// per allocation) costs on a transform-heavy operation. The budget
	// is generous — the kernel measures accounting overhead, not
	// rejection. The default governor carries the charges so rmabench's
	// expvar "rma.memory" surface (exec.Metrics) shows the bench tenant
	// while the suite runs.
	out = append(out, measure("core.Add(arena-budgeted)", wideRows, wideCols, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Add(wr, []string{"k"}, ws, []string{"k2"},
				&core.Options{SortMode: core.SortOptimized, Tenant: "bench",
					MemoryBudget: 1 << 30}); err != nil {
				b.Fatal(err)
			}
		}
	}))

	qr := dataset.Uniform(qqrRows, qqrCols, 7)
	out = append(out, measure("core.Qqr(table6)", qqrRows, qqrCols, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Qqr(qr, []string{"k"},
				&core.Options{Policy: core.PolicyDense, SortMode: core.SortOptimized}); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// Relational operators on the parallel substrate: partitioned hash
	// join (~1 match per probe row), grouped aggregation (256 groups),
	// and the merge-sorted permutation.
	joinRows := 1 << 17
	if quick {
		joinRows = 1 << 13
	}
	jl := intKeyRel("l", joinRows, int64(joinRows), 11)
	js := intKeyRel("s", joinRows, int64(joinRows), 12)
	out = append(out, measure("rel.HashJoin", joinRows, 2, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := rel.HashJoin(nil, jl, js, []string{"l_k"}, []string{"s_k"}, rel.Inner); err != nil {
				b.Fatal(err)
			}
		}
	}))

	gr := intKeyRel("g", joinRows, 256, 13)
	aggs := []rel.AggSpec{
		{Func: rel.Count, As: "n"},
		{Func: rel.Sum, Attr: "g_v", As: "s"},
		{Func: rel.Min, Attr: "g_v", As: "lo"},
	}
	out = append(out, measure("rel.GroupBy", joinRows, 256, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := rel.GroupBy(nil, gr, []string{"g_k"}, aggs); err != nil {
				b.Fatal(err)
			}
		}
	}))

	sortCol := bat.FromFloats(seqFloats(joinRows, 17))
	out = append(out, measure("bat.SortIndex", joinRows, 1, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bat.FreeInts(bat.SortIndex(nil, []*bat.BAT{sortCol}))
		}
	}))

	spLen := rows
	sa := sparseOf(spLen, 100, 5) // ~1% density
	sb := sparseOf(spLen, 100, 6)
	out = append(out, measure("bat.SparseAdd", spLen, 1, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bat.SparseAdd(nil, sa, sb)
		}
	}))

	// End-to-end statement pipeline: a filter → join → group-by SELECT
	// streamed morsel-at-a-time. The row also records the peak accounted
	// arena bytes of a single run (measured under a dedicated tenant,
	// outside the timed loop).
	sdb, q := streamBenchDB(joinRows)
	gov := exec.NewGovernor(1<<33, 4)
	sdb.SetGovernor(gov)
	sdb.SetRMAOptions(&core.Options{Tenant: "bench-pipe", MemoryBudget: 1 << 31})
	if _, err := sdb.Query(q); err != nil {
		return nil, fmt.Errorf("bench: pipeline setup: %w", err)
	}
	peak := gov.Tenant("bench-pipe", 1<<31).PeakBytes()
	sdb.SetRMAOptions(nil) // time the pipeline itself, not the accounting
	kr := measure("sql.Select(filter-join-group, streamed)", joinRows, 3, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sdb.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	kr.PeakBytes = peak
	out = append(out, kr)

	// Out-of-core variant of the same pipeline: a one-byte spill
	// threshold sends every estimate-gated operator to its disk path, so
	// the trajectory tracks what staging costs against the in-memory
	// rows above — and PeakBytes records the resident footprint the
	// staging buys back.
	spillDir, err := os.MkdirTemp("", "rmabench-spill-")
	if err != nil {
		return nil, fmt.Errorf("bench: spill dir: %w", err)
	}
	defer os.RemoveAll(spillDir)
	sdb.SetSpill(spillDir, 1)
	sgov := exec.NewGovernor(1<<33, 4)
	sdb.SetGovernor(sgov)
	sdb.SetRMAOptions(&core.Options{Tenant: "bench-spill", MemoryBudget: 1 << 31})
	if _, err := sdb.Query(q); err != nil {
		return nil, fmt.Errorf("bench: spilled pipeline setup: %w", err)
	}
	if st := sdb.SpillStats(); st.Events == 0 {
		return nil, fmt.Errorf("bench: spilled pipeline staged nothing to disk")
	}
	spillPeak := sgov.Tenant("bench-spill", 1<<31).PeakBytes()
	sdb.SetRMAOptions(nil)
	kr = measure("sql.Select(filter-join-group, spilled)", joinRows, 3, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sdb.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	kr.PeakBytes = spillPeak
	out = append(out, kr)

	// Zone-map-pruned scan over the on-disk segment store: ascending
	// keys make per-segment min/max ranges disjoint, so the BETWEEN
	// confines the aggregation to one mid-table segment and the scan
	// skips the rest.
	scanSegs := 8
	if quick {
		scanSegs = 2
	}
	scanRows := scanSegs * store.SegRows
	scanQ, pdb, pdir, err := persistedScanDB(scanSegs)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(pdir)
	defer pdb.Close()
	out = append(out, measure("store.Scan(zonemap-pruned)", scanRows, 2, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pdb.Query(scanQ); err != nil {
				b.Fatal(err)
			}
		}
	}))

	return out, nil
}

// persistedScanDB checkpoints a two-column table spanning scanSegs
// on-disk segments and returns a single-segment range aggregation over
// it, plus the data directory for the caller to remove after Close.
func persistedScanDB(scanSegs int) (string, *sql.DB, string, error) {
	dir, err := os.MkdirTemp("", "rmabench-store-")
	if err != nil {
		return "", nil, "", fmt.Errorf("bench: store dir: %w", err)
	}
	n := scanSegs * store.SegRows
	ks := make([]int64, n)
	vs := make([]float64, n)
	for i := range ks {
		ks[i] = int64(i)
		vs[i] = float64(i%911) * 0.5
	}
	db := sql.NewDB()
	if err := db.SetDataDir(dir); err != nil {
		return "", nil, "", fmt.Errorf("bench: store scan setup: %w", err)
	}
	db.Register("src", rel.MustNew("src", rel.Schema{
		{Name: "k", Type: bat.Int},
		{Name: "v", Type: bat.Float},
	}, []*bat.BAT{bat.FromInts(ks), bat.FromFloats(vs)}))
	for _, stmt := range []string{
		"CREATE TABLE pt (k BIGINT, v DOUBLE) PERSIST",
		"INSERT INTO pt SELECT k, v FROM src",
	} {
		if _, err := db.Exec(stmt); err != nil {
			db.Close()
			return "", nil, "", fmt.Errorf("bench: %s: %w", stmt, err)
		}
	}
	lo := (scanSegs / 2) * store.SegRows
	q := fmt.Sprintf("SELECT SUM(v) AS s, COUNT(*) AS n FROM pt WHERE k BETWEEN %d AND %d",
		lo, lo+store.SegRows-1)
	return q, db, dir, nil
}

// streamBenchDB builds the fact/dimension pair and the statement the
// pipeline kernels run: a half-selective scan filter, an equi-join into
// a 500-row dimension, and a 97-group aggregation.
func streamBenchDB(n int) (*sql.DB, string) {
	grps := make([]int64, n)
	vals := make([]float64, n)
	ws := make([]float64, n)
	for i := 0; i < n; i++ {
		grps[i] = int64((i*7919 + 5) % 97)
		vals[i] = float64(i%211)*0.375 - 39.0
		ws[i] = float64((i*31)%997) * 0.0625
	}
	db := sql.NewDB()
	db.Register("t", rel.MustNew("t", rel.Schema{
		{Name: "grp", Type: bat.Int},
		{Name: "val", Type: bat.Float},
		{Name: "w", Type: bat.Float},
	}, []*bat.BAT{bat.FromInts(grps), bat.FromFloats(vals), bat.FromFloats(ws)}))

	const dn = 500
	ks := make([]int64, dn)
	bonus := make([]float64, dn)
	for j := 0; j < dn; j++ {
		ks[j] = int64((j * 13) % 120)
		bonus[j] = float64(j%17) * 0.5
	}
	db.Register("s", rel.MustNew("s", rel.Schema{
		{Name: "k", Type: bat.Int},
		{Name: "bonus", Type: bat.Float},
	}, []*bat.BAT{bat.FromInts(ks), bat.FromFloats(bonus)}))

	q := "SELECT grp AS g, SUM(val) AS sv, SUM(w) AS sw, COUNT(*) AS n " +
		"FROM t JOIN s ON t.grp = s.k WHERE t.val > 0 GROUP BY grp ORDER BY g"
	return db, q
}

// intKeyRel builds a two-column relation (int key of the given cardinality,
// float value) for the join/group kernels.
func intKeyRel(name string, n int, card, seed int64) *rel.Relation {
	keys := make([]int64, n)
	for k := range keys {
		keys[k] = (int64(k)*7919 + seed*104729) % card
	}
	return rel.MustNew(name, rel.Schema{
		{Name: name + "_k", Type: bat.Int},
		{Name: name + "_v", Type: bat.Float},
	}, []*bat.BAT{bat.FromInts(keys), bat.FromFloats(seqFloats(n, seed))})
}

// sparseOf builds a zero-suppressed column of length n keeping roughly one
// in every stride values non-zero.
func sparseOf(n, stride int, seed int64) *bat.Sparse {
	f := make([]float64, n)
	for k := 0; k < n; k += stride {
		f[k] = float64((int64(k)*7919+seed)%1000 + 1)
	}
	return bat.Compress(f)
}

// WriteKernelReport runs MicroKernels and writes the JSON document to
// path (the BENCH_<n>.json convention of the repository roadmap).
func WriteKernelReport(path string, quick bool) error {
	results, err := MicroKernels(quick)
	if err != nil {
		return err
	}
	loadRows, err := LoadKernels(quick)
	if err != nil {
		return err
	}
	results = append(results, loadRows...)
	report := KernelReport{
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Parallelism: exec.DefaultWorkers(),
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
		Results:     results,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: writing %s: %w", path, err)
	}
	return nil
}

func seqFloats(n int, seed int64) []float64 {
	f := make([]float64, n)
	for k := range f {
		f[k] = float64((int64(k)*7919 + seed*104729) % 1000)
	}
	return f
}

func columnsOf(rows, cols int, seed int64) []*bat.BAT {
	out := make([]*bat.BAT, cols)
	for j := range out {
		out[j] = bat.FromFloats(seqFloats(rows, seed+int64(j)))
	}
	return out
}
