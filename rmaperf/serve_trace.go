package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/bat"
	"repro/internal/rel"
	"repro/internal/sql"
)

// serveReplay replays a served statement's layer calls in-process, on
// the same generated tables the server holds.
type serveReplay struct {
	t, s *rel.Relation
	tPos *rel.Relation // t filtered on val > 0: the join_group probe input
	val  *bat.BAT      // t.val, the topk sort key

	mu      sync.Mutex
	rowsPer map[string]float64 // stage rows per result row, per shape
	hits0   int64              // pool counters when the traced pass began
	miss0   int64
	cache0  sql.PlanCacheStats
}

var joinGroupAggs = []rel.AggSpec{
	{Func: rel.Sum, Attr: "val", As: "sv"},
	{Func: rel.Sum, Attr: "w", As: "sw"},
	{Func: rel.Count, As: "n"},
}

func (w *serveWL) traceCycles() int { return 8 }

func (w *serveWL) beginTrace() error {
	t, s := w.data.relations()
	r := &serveReplay{t: t, s: s, rowsPer: map[string]float64{}}
	r.tPos = t.Select(nil, func(i int) bool { return w.data.val[i] > 0 })
	r.val, _ = t.Col("val")
	var err error
	if r.hits0, r.miss0, err = w.poolCounts(); err != nil {
		return err
	}
	m, err := w.srv.metrics()
	if err != nil {
		return err
	}
	r.cache0 = m.Memory.PlanCache
	w.replay = r
	return nil
}

// statement records a served statement's spans — the client-observed
// request, with the server's reported execution time as its sql child —
// and replays its layer calls as further children.
func (r *serveReplay) statement(tr *tracer, sh shape, t0, t1 time.Time, elapsed time.Duration, respBytes int) (map[string]float64, error) {
	op := tr.newOp()
	root := tr.add(0, op, "rmaserver", "serve."+sh.name, t0, t1, map[string]int64{"resp_bytes": int64(respBytes)})
	tr.add(root, op, "sql", "sql.DB.ExecWith (server elapsed_us)", t0, t0.Add(elapsed), nil)
	layer := map[string]float64{
		"rmaserver.wire_ms." + sh.name: ms(t1.Sub(t0) - elapsed),
		"sql.exec_ms." + sh.name:       ms(elapsed),
	}
	if sh.name == "export" {
		layer["rmaserver.resp_bytes.export"] = float64(respBytes)
	}
	d, err := tr.timed(root, op, "sql", "sql.Parse", func() error {
		_, err := sql.Parse(sh.sql)
		return err
	})
	if err != nil {
		return nil, err
	}
	layer["sql.parse_ms"] = ms(d)
	switch sh.name {
	case "join_group":
		var joined *rel.Relation
		d, err := tr.timed(root, op, "rel", "rel.HashJoin", func() (err error) {
			joined, err = rel.HashJoin(nil, r.tPos, r.s, []string{"grp"}, []string{"k"}, rel.Inner)
			return err
		})
		if err != nil {
			return nil, err
		}
		layer["rel.join_ms"] = ms(d)
		if d, err = tr.timed(root, op, "rel", "rel.GroupBy", func() error {
			_, err := rel.GroupBy(nil, joined, []string{"grp"}, joinGroupAggs)
			return err
		}); err != nil {
			return nil, err
		}
		layer["rel.group_ms"] = ms(d)
	case "topk":
		d, _ := tr.timed(root, op, "bat", "bat.SortIndex", func() error {
			bat.FreeInts(bat.SortIndex(nil, []*bat.BAT{r.val}))
			return nil
		})
		layer["bat.sort_ms"] = ms(d)
	}
	if err := r.stageRows(tr, root, op, sh); err != nil {
		return nil, err
	}
	return layer, nil
}

// stageRows replays a shape once through an in-process streamed
// statement and reads its PipelineStats: rows emitted by all stages
// per result row.
func (r *serveReplay) stageRows(tr *tracer, root, op int64, sh shape) error {
	r.mu.Lock()
	_, done := r.rowsPer[sh.name]
	r.mu.Unlock()
	if done {
		return nil
	}
	db := sql.NewDB()
	db.Register("t", r.t)
	db.Register("s", r.s)
	var res *rel.Relation
	if _, err := tr.timed(root, op, "sql", "sql.DB.Exec (pipeline replay)", func() (err error) {
		res, err = db.Exec(sh.sql)
		return err
	}); err != nil {
		return err
	}
	var rows int64
	for _, st := range db.PipelineStats() {
		rows += st.Rows
	}
	if rows == 0 {
		return fmt.Errorf("%s: no pipeline stages recorded", sh.name)
	}
	r.mu.Lock()
	r.rowsPer[sh.name] = float64(rows) / float64(max(res.NumRows(), 1))
	r.mu.Unlock()
	return nil
}

func (w *serveWL) layerMetrics(ops []opResult) (map[string]metric, error) {
	r := w.replay
	out := map[string]metric{}
	for _, sh := range serveShapes {
		out["rmaserver.wire_ms."+sh.name] = metric{layerP50(ops, "rmaserver.wire_ms."+sh.name), "ms"}
		out["sql.exec_ms."+sh.name] = metric{layerP50(ops, "sql.exec_ms."+sh.name), "ms"}
		out["sql.stage_rows_per_result."+sh.name] = metric{r.rowsPer[sh.name], "rows"}
	}
	out["rmaserver.resp_bytes.export"] = metric{layerP50(ops, "rmaserver.resp_bytes.export"), "B"}
	out["sql.parse_ms"] = metric{layerP50(ops, "sql.parse_ms"), "ms"}
	out["rel.join_ms"] = metric{layerP50(ops, "rel.join_ms"), "ms"}
	out["rel.group_ms"] = metric{layerP50(ops, "rel.group_ms"), "ms"}
	out["bat.sort_ms"] = metric{layerP50(ops, "bat.sort_ms"), "ms"}

	m, err := w.srv.metrics()
	if err != nil {
		return nil, err
	}
	pc := m.Memory.PlanCache
	hits, misses := pc.Hits-r.cache0.Hits, pc.Misses-r.cache0.Misses
	out["sql.plan_cache_hit_rate"] = metric{float64(hits) / float64(max(hits+misses, 1)), "ratio"}
	h, mi, err := w.poolCounts()
	if err != nil {
		return nil, err
	}
	h, mi = h-r.hits0, mi-r.miss0
	out["exec.pool_hit_rate.serve"] = metric{float64(h) / float64(max(h+mi, 1)), "ratio"}
	allocs, err := joinAllocs(w.cfg)
	if err != nil {
		return nil, err
	}
	out["rel.join_allocs"] = metric{allocs, "count"}
	return out, nil
}

// joinAllocs counts the heap allocations of one rel.HashJoin of two
// generated int-keyed relations of joinRows rows each.
func joinAllocs(cfg config) (float64, error) {
	n := cfg.size.joinRows
	rng := rand.New(rand.NewSource(cfg.seed))
	mk := func(name string) *rel.Relation {
		keys := make([]int64, n)
		vals := make([]float64, n)
		for i := range keys {
			keys[i] = int64(rng.Intn(n))
			vals[i] = float64(i)
		}
		return rel.MustNew(name, rel.Schema{{Name: name + "_k", Type: bat.Int}, {Name: name + "_v", Type: bat.Float}},
			[]*bat.BAT{bat.FromInts(keys), bat.FromFloats(vals)})
	}
	l, r := mk("l"), mk("r")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := rel.HashJoin(nil, l, r, []string{"l_k"}, []string{"r_k"}, rel.Inner)
	runtime.ReadMemStats(&after)
	if err != nil {
		return 0, fmt.Errorf("rel.join_allocs: %w", err)
	}
	return float64(after.Mallocs - before.Mallocs), nil
}
