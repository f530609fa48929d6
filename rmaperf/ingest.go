package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/rel"
	"repro/internal/sql"
	"repro/internal/store"
)

// The ingest workload: one in-process client writing beside reading. A
// PERSIST table starts empty each epoch; every round inserts a fixed
// batch through INSERT ... SELECT (with its keys shifted past the
// rows already there), runs four zone-map-prunable range aggregates,
// and one join-group whose spill threshold is low enough that its
// aggregation spills. Epochs have a fixed number of rounds, so the
// table sizes an op sees do not depend on how fast earlier ops ran.

const (
	ingestTenant   = "ingest"
	rangesPerRound = 4
)

// ingestBatch is the fixed batch: keys 0..n-1, a group key, a value.
// Values are multiples of 1/8 and weights multiples of 1/2, so every
// sum is exact and the checks compare bit for bit.
type ingestBatch struct {
	g      []int64
	v      []float64
	prefix []float64 // prefix[i] = v[0] + ... + v[i-1]
	dimW   []float64 // weight of each group key
	// per group: row count and the sum of v*w
	gCount []float64
	gSum   []float64
}

func genIngest(sz sizes, seed int64) *ingestBatch {
	rng := rand.New(rand.NewSource(seed))
	b := &ingestBatch{
		g: make([]int64, sz.batchRows), v: make([]float64, sz.batchRows),
		prefix: make([]float64, sz.batchRows+1), dimW: make([]float64, sz.groups),
		gCount: make([]float64, sz.groups), gSum: make([]float64, sz.groups),
	}
	for g := range b.dimW {
		b.dimW[g] = float64(rng.Intn(16)) * 0.5
	}
	for i := range b.g {
		b.g[i] = int64(rng.Intn(sz.groups))
		b.v[i] = float64(rng.Intn(1000)) * 0.125
		b.prefix[i+1] = b.prefix[i] + b.v[i]
		b.gCount[b.g[i]]++
		b.gSum[b.g[i]] += b.v[i] * b.dimW[b.g[i]]
	}
	return b
}

// loadScript creates and fills the in-memory batch and dim tables.
func (b *ingestBatch) loadScript() string {
	var s strings.Builder
	s.WriteString("CREATE TABLE batch (k INT, g INT, v DOUBLE); CREATE TABLE dim (g INT, h INT, w DOUBLE);\nINSERT INTO batch VALUES ")
	for i := range b.g {
		if i > 0 {
			s.WriteByte(',')
		}
		fmt.Fprintf(&s, "(%d,%d,%s)", i, b.g[i], sqlFloat(b.v[i]))
	}
	s.WriteString(";\nINSERT INTO dim VALUES ")
	for g, w := range b.dimW {
		if g > 0 {
			s.WriteByte(',')
		}
		fmt.Fprintf(&s, "(%d,%d,%s)", g, dimLabel(g, len(b.dimW)), sqlFloat(w))
	}
	return s.String()
}

// rangeExpect returns the row count and value sum of keys lo..hi in a
// table holding rows whole batches (key r*n+i carries batch row i).
func (b *ingestBatch) rangeExpect(lo, hi, rows int) (count, sum float64) {
	n := len(b.g)
	hi = min(hi, rows-1)
	for k := lo; k <= hi; {
		i := k % n
		j := min(n-1, i+hi-k) // last batch row of this stretch
		count += float64(j - i + 1)
		sum += b.prefix[j+1] - b.prefix[i]
		k += j - i + 1
	}
	return count, sum
}

const (
	createFacts = "CREATE TABLE facts (k INT, g INT, v DOUBLE) PERSIST"
	// The join-group groups by a dimension label rather than by the
	// join key, so the aggregation is not co-partitioned with the join
	// and runs in the single accumulator that spills.
	spillJoin = "SELECT d.h AS h, COUNT(*) AS n, SUM(f.v * d.w) AS s FROM facts f JOIN dim d ON f.g = d.g GROUP BY d.h ORDER BY h"
)

// dimLabel is group key g's label: a permutation of 0..groups-1 when
// groups is a power of two.
func dimLabel(g, groups int) int { return (g*37 + 11) % groups }

// ingestWL is the ingest workload's state.
type ingestWL struct {
	cfg    config
	dir    string
	setups int
	want   *ingestBatch
	db     *sql.DB
	gov    *exec.Governor
	data   string // the database's data directory
	opts   *core.Options
	epochs int
	spent  time.Duration // CPU time inside engine calls
	trace  *ingestTrace  // traced runs only
}

func newIngest(cfg config, dir string) workload {
	w := &ingestWL{cfg: cfg, dir: dir, want: genIngest(cfg.size, cfg.seed)}
	if cfg.corrupt {
		w.want.prefix[len(w.want.prefix)-1]++
		w.want.gCount[0]++
	}
	return w
}

func (w *ingestWL) ops() []string { return []string{"insert", "range", "spill_join"} }

func (w *ingestWL) setup() error {
	batch := genIngest(w.cfg.size, w.cfg.seed)
	w.setups++
	base := filepath.Join(w.dir, fmt.Sprintf("ingest-%d", w.setups))
	w.data = filepath.Join(base, "data")
	w.db = sql.NewDB()
	w.gov = exec.NewGovernor(0, 0)
	w.db.SetGovernor(w.gov)
	if err := w.db.SetDataDir(w.data); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(base, "spill"), 0o755); err != nil {
		return err
	}
	w.db.SetSpill(filepath.Join(base, "spill"), w.cfg.size.spillThreshold)
	if _, err := w.db.Exec(batch.loadScript()); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	w.opts = &core.Options{Tenant: ingestTenant}
	// Warm up on a two-round epoch; wrong answers are for the measured
	// run to report.
	_, err := w.epoch(2, nil)
	return err
}

func (w *ingestWL) run(p plan, tr *tracer) []opResult {
	var out []opResult
	var last time.Duration
	for done := 0; p.more(done, last); done++ {
		t0 := time.Now()
		ops, err := w.epoch(w.cfg.size.rounds, tr)
		out = append(out, ops...)
		if err != nil {
			logFailure("ingest epoch: %v", err)
			break
		}
		last = time.Since(t0)
	}
	return out
}

// epoch creates the persisted table, runs rounds rounds and drops it.
// The error reports a failure of the epoch's own DDL.
func (w *ingestWL) epoch(rounds int, tr *tracer) ([]opResult, error) {
	if _, err := w.db.ExecWith(createFacts, w.opts); err != nil {
		return nil, err
	}
	w.epochs++
	rng := rand.New(rand.NewSource(w.cfg.seed*7919 + int64(w.epochs)))
	n := len(w.want.g)
	var out []opResult
	var written int64
	for r := 0; r < rounds; r++ {
		rows := (r + 1) * n
		op, bytes := w.insert(r, rows, tr)
		written += bytes
		out = append(out, op)
		for q := 0; q < rangesPerRound; q++ {
			lo := rng.Intn(rows)
			out = append(out, w.rangeAgg(lo, lo+n/4-1, rows, tr))
		}
		out = append(out, w.join(r+1, tr))
		if tr != nil {
			w.trace.noteAmp(r+1, rounds, written, w.segSize())
		}
	}
	if _, err := w.db.ExecWith("DROP TABLE facts", w.opts); err != nil {
		return out, err
	}
	return out, nil
}

// exec runs one timed statement under the workload's tenant.
func (w *ingestWL) exec(stmt string) (res *rel.Relation, t0, t1 time.Time, err error) {
	t0, t1 = engineCall(&w.spent, func() { res, err = w.db.ExecWith(stmt, w.opts) })
	return res, t0, t1, err
}

func (w *ingestWL) cpu() (time.Duration, error) { return w.spent, nil }

// insert appends round r's batch; rows is the table size after it. It
// returns the bytes the insert wrote.
func (w *ingestWL) insert(r, rows int, tr *tracer) (opResult, int64) {
	n := len(w.want.g)
	stmt := fmt.Sprintf("INSERT INTO facts SELECT k + %d AS k, g, v FROM batch", r*n)
	io0 := writtenBytes()
	_, t0, t1, err := w.exec(stmt)
	wrote := writtenBytes() - io0
	if io0 < 0 || wrote < 0 {
		wrote = w.segSize() // whole-file checkpoints: the file is what was written
	}
	res := opResult{op: "insert", dur: t1.Sub(t0)}
	if err == nil {
		var facts *rel.Relation
		if facts, err = w.db.Table("facts"); err == nil && facts.NumRows() != rows {
			err = fmt.Errorf("facts holds %d rows, want %d", facts.NumRows(), rows)
		}
	}
	if err == nil && tr != nil {
		res.layer, err = w.trace.insert(tr, t0, t1, rows, wrote)
	}
	res.ok = err == nil
	if err != nil {
		logFailure("ingest insert: %v", err)
	}
	return res, wrote
}

// rangeAgg counts and sums the values of keys lo..hi.
func (w *ingestWL) rangeAgg(lo, hi, rows int, tr *tracer) opResult {
	stmt := fmt.Sprintf("SELECT COUNT(*) AS n, SUM(v) AS sv FROM facts WHERE k BETWEEN %d AND %d", lo, hi)
	res, t0, t1, err := w.exec(stmt)
	op := opResult{op: "range", dur: t1.Sub(t0)}
	if err == nil {
		count, sum := w.want.rangeExpect(lo, hi, rows)
		var got [][]float64
		if got, err = resultCols(res, "n", "sv"); err == nil {
			err = equalCols(got, [][]float64{{count}, {sum}})
		}
	}
	if err == nil && tr != nil {
		op.layer = w.trace.statement(tr, "range", t0, t1, nil)
	}
	op.ok = err == nil
	if err != nil {
		logFailure("ingest range %d..%d: %v", lo, hi, err)
	}
	return op
}

// join runs the spilling join-group over a table of rounds batches.
func (w *ingestWL) join(rounds int, tr *tracer) opResult {
	sp0 := w.db.SpillStats()
	res, t0, t1, err := w.exec(spillJoin)
	sp := w.db.SpillStats()
	op := opResult{op: "spill_join", dur: t1.Sub(t0)}
	if err == nil {
		// Labels are a permutation of the group keys: walk them in
		// order.
		groups := len(w.want.gCount)
		byLabel := make([]int, groups)
		for g := range byLabel {
			byLabel[dimLabel(g, groups)] = g
		}
		var want [3][]float64
		for h, g := range byLabel {
			if c := w.want.gCount[g]; c > 0 {
				want[0] = append(want[0], float64(h))
				want[1] = append(want[1], c*float64(rounds))
				want[2] = append(want[2], w.want.gSum[g]*float64(rounds))
			}
		}
		var got [][]float64
		if got, err = resultCols(res, "h", "n", "s"); err == nil {
			err = equalCols(got, want[:])
		}
	}
	if err == nil && tr != nil {
		op.layer = w.trace.statement(tr, "spill_join", t0, t1, map[string]int64{
			"spill_bytes": sp.SpilledBytes - sp0.SpilledBytes, "spill_events": sp.Events - sp0.Events,
		})
	}
	op.ok = err == nil
	if err != nil {
		logFailure("ingest spill_join: %v", err)
	}
	return op
}

// segSize is the persisted table's segment file size (0 if absent).
func (w *ingestWL) segSize() int64 {
	fi, err := os.Stat(filepath.Join(w.data, "facts.seg"))
	if err != nil {
		return 0
	}
	return fi.Size()
}

func (w *ingestWL) peakBytes() (int64, error) {
	return tenantOf(w.gov, ingestTenant).PeakBytes, nil
}

func (w *ingestWL) close() {
	if w.db != nil {
		w.db.Close()
		w.db = nil
	}
}

// writtenBytes reads the bytes this process has passed to write(2)
// from /proc/self/io (-1 where that file does not exist).
func writtenBytes() int64 {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := bytes.CutPrefix(sc.Bytes(), []byte("wchar:")); ok {
			n, err := strconv.ParseInt(string(bytes.TrimSpace(v)), 10, 64)
			if err == nil {
				return n
			}
		}
	}
	return -1
}

// ingestTrace holds the traced pass's counters and replay state.
type ingestTrace struct {
	dir         string
	hits0       int64
	miss0       int64
	amp, ampMid float64
	batch       *ingestBatch
}

func (w *ingestWL) traceCycles() int { return 1 }

func (w *ingestWL) beginTrace() error {
	tot := tenantOf(w.gov, ingestTenant).Total()
	w.trace = &ingestTrace{dir: filepath.Dir(w.data), hits0: tot.PoolHits, miss0: tot.PoolMisses, batch: w.want}
	return nil
}

// noteAmp records the write amplification after round r of rounds:
// bytes written by every checkpoint so far over the file's size.
func (t *ingestTrace) noteAmp(r, rounds int, written, size int64) {
	if size <= 0 {
		return
	}
	amp := float64(written) / float64(size)
	if r == rounds/2 {
		t.ampMid = amp
	}
	if r == rounds {
		t.amp = amp
	}
}

// statement records an ingest statement's span with its counts.
func (t *ingestTrace) statement(tr *tracer, name string, t0, t1 time.Time, counts map[string]int64) map[string]float64 {
	tr.add(0, tr.newOp(), "sql", "ingest."+name, t0, t1, counts)
	layer := map[string]float64{"sql.exec_ms." + name: ms(t1.Sub(t0))}
	for k, v := range counts {
		layer["exec."+k] = float64(v)
	}
	return layer
}

// insert records an insert's span and replays the store write it
// implies: the table at its new size written through store.Create,
// Append and Close.
func (t *ingestTrace) insert(tr *tracer, t0, t1 time.Time, rows int, wrote int64) (map[string]float64, error) {
	op := tr.newOp()
	root := tr.add(0, op, "sql", "ingest.insert", t0, t1, map[string]int64{"bytes_written": wrote})
	n := len(t.batch.g)
	k := make([]int64, rows)
	g := make([]int64, rows)
	v := make([]float64, rows)
	for i := range k {
		k[i] = int64(i)
		g[i] = t.batch.g[i%n]
		v[i] = t.batch.v[i%n]
	}
	path := filepath.Join(t.dir, "replay.seg")
	d, err := tr.timed(root, op, "store", "store.Create/Append/Close", func() error {
		sw, err := store.Create(path, "facts", []store.ColSpec{{Name: "k", Kind: store.KInt}, {Name: "g", Kind: store.KInt}, {Name: "v", Kind: store.KFloat}})
		if err != nil {
			return err
		}
		if err := sw.Append(rows, []store.ColData{{I: k}, {I: g}, {F: v}}); err != nil {
			sw.Close()
			return err
		}
		return sw.Close()
	})
	os.Remove(path)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"sql.exec_ms.insert":  ms(t1.Sub(t0)),
		"store.bytes_written": float64(wrote),
		"store.write_ms":      ms(d),
	}, nil
}

func (w *ingestWL) layerMetrics(ops []opResult) (map[string]metric, error) {
	t := w.trace
	out := map[string]metric{}
	for _, op := range w.ops() {
		out["sql.exec_ms."+op] = metric{layerP50(ops, "sql.exec_ms."+op), "ms"}
	}
	out["exec.spill_bytes"] = metric{layerMean(ops, "exec.spill_bytes"), "B"}
	out["exec.spill_events"] = metric{layerMean(ops, "exec.spill_events"), "count"}
	out["store.bytes_written"] = metric{layerMean(ops, "store.bytes_written"), "B"}
	out["store.write_ms"] = metric{layerP50(ops, "store.write_ms"), "ms"}
	out["store.write_amp"] = metric{t.amp, "ratio"}
	out["store.write_amp.mid"] = metric{t.ampMid, "ratio"}
	tot := tenantOf(w.gov, ingestTenant).Total()
	h, m := tot.PoolHits-t.hits0, tot.PoolMisses-t.miss0
	out["exec.pool_hit_rate.ingest"] = metric{float64(h) / float64(max(h+m, 1)), "ratio"}
	return out, nil
}
