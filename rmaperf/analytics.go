package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/rel"
	"repro/internal/sql"
)

// The analytics workload: one in-process client cycling three of the
// paper's mixed statements (§8.6), where relational preparation feeds
// matrix operations and relational operators consume matrix results.

// olsA prepares the regression design [1, distance] in SQL: trips that
// members rode, joined twice with the stations for the endpoints'
// coordinates, with the distance computed by SQRT.
const olsA = "(SELECT t.id AS i, 1.0 AS b0, " +
	"SQRT(((s1.lat - s2.lat) * 111.0) * ((s1.lat - s2.lat) * 111.0) + " +
	"((s1.lon - s2.lon) * 78.8) * ((s1.lon - s2.lon) * 78.8)) AS b1 " +
	"FROM trips t JOIN stations s1 ON t.start_station = s1.code " +
	"JOIN stations s2 ON t.end_station = s2.code WHERE t.member = 'yes')"

// olsV is the response: the duration of the same trips.
const olsV = "(SELECT t.id AS i2, t.duration AS dur FROM trips t WHERE t.member = 'yes')"

var analyticsStmts = []shape{
	// §8.6(1), Figure 15: OLS, beta = (AᵀA)⁻¹ AᵀV.
	{"ols", "SELECT * FROM MMU(INV(CPD(" + olsA + " BY i, " + olsA + " BY i) BY C) BY C, " +
		"CPD(" + olsA + " BY i, " + olsV + " BY i2) BY C)"},
	// §8.6(3), Figure 17: cross products of the publication counts,
	// joined with the ranking and restricted to A++ conferences.
	{"cov", "SELECT * FROM CPD(pubs BY author, pubs BY author) AS c " +
		"JOIN ranking r ON c.C = r.conf WHERE r.rating = 'A++'"},
	// QR decomposition of a relation at the tiled-kernel gate; the
	// whole Q comes back so QᵀQ = I can be checked.
	{"qqr", "SELECT * FROM QQR(u BY k)"},
}

// olsRelBound is the relative error the OLS coefficients may have
// against the plain-Go normal-equations solve: the engine sums and
// inverts in a different order, which moves the last few bits only.
const olsRelBound = 1e-9

// qqrBound is the largest |QᵀQ - I| entry accepted.
const qqrBound = 1e-9

// analyticsInputs is the generated catalog.
type analyticsInputs struct {
	trips, stations, pubs, ranking, u *rel.Relation
}

func genAnalytics(sz sizes, seed int64) analyticsInputs {
	return analyticsInputs{
		trips:    dataset.Trips(sz.trips, sz.stations, seed),
		stations: dataset.Stations(sz.stations, seed),
		pubs:     dataset.Publications(sz.authors, sz.confs, seed),
		ranking:  dataset.Rankings(sz.confs, seed),
		u:        dataset.Uniform(sz.uRows, sz.uCols, seed),
	}
}

// analyticsRef holds the answers computed in plain Go.
type analyticsRef struct {
	beta  [2]float64           // OLS intercept and slope
	x, y  []float64            // OLS distance and duration per member trip
	cov   map[string][]float64 // A++ conference -> its cross-product row
	confs []string             // conference column names in order
	qRows int
	qCols int
}

func analyticsExpect(in analyticsInputs) analyticsRef {
	ref := analyticsRef{cov: map[string][]float64{}, qRows: in.u.NumRows(), qCols: in.u.NumCols() - 1}
	// OLS: distance between the endpoint stations, as the SQL computes
	// it, then the 2x2 normal equations solved by Cramer's rule.
	code := ints(in.stations, "code")
	lat, lon := floats(in.stations, "lat"), floats(in.stations, "lon")
	at := map[int64]int{}
	for i, c := range code {
		at[c] = i
	}
	start, end := ints(in.trips, "start_station"), ints(in.trips, "end_station")
	dur := floats(in.trips, "duration")
	member := strs(in.trips, "member")
	var n, sx, sxx, sy, sxy float64
	for i := range start {
		if member[i] != "yes" {
			continue
		}
		a, b := at[start[i]], at[end[i]]
		dy := (lat[a] - lat[b]) * 111.0
		dx := (lon[a] - lon[b]) * 78.8
		x := math.Sqrt(dy*dy + dx*dx)
		ref.x = append(ref.x, x)
		ref.y = append(ref.y, dur[i])
		n++
		sx += x
		sxx += x * x
		sy += dur[i]
		sxy += x * dur[i]
	}
	det := n*sxx - sx*sx
	ref.beta = [2]float64{(sxx*sy - sx*sxy) / det, (n*sxy - sx*sy) / det}

	// Cross products of the A++ conferences' count columns with every
	// conference's.
	cols := map[string][]float64{}
	for _, a := range in.pubs.Schema[1:] {
		ref.confs = append(ref.confs, a.Name)
		cols[a.Name] = floats(in.pubs, a.Name)
	}
	names, rating := strs(in.ranking, "conf"), strs(in.ranking, "rating")
	for i, c := range names {
		if rating[i] != "A++" {
			continue
		}
		row := make([]float64, len(ref.confs))
		for j, d := range ref.confs {
			var s float64
			for r, v := range cols[c] {
				s += v * cols[d][r]
			}
			row[j] = s
		}
		ref.cov[c] = row
	}
	return ref
}

// analyticsWL is the analytics workload's state.
type analyticsWL struct {
	cfg   config
	ref   analyticsRef
	in    analyticsInputs
	db    *sql.DB
	gov   *exec.Governor
	opts  *core.Options
	spent time.Duration   // CPU time inside engine calls
	tr    *analyticsTrace // traced runs only
}

func (w *analyticsWL) cpu() (time.Duration, error) { return w.spent, nil }

const analyticsTenant = "analytics"

func newAnalytics(cfg config, dir string) workload {
	w := &analyticsWL{cfg: cfg}
	w.ref = analyticsExpect(genAnalytics(cfg.size, cfg.seed))
	if cfg.corrupt {
		w.ref.beta[1]++
		for _, row := range w.ref.cov {
			row[0]++
		}
		w.ref.qRows++
	}
	return w
}

func (w *analyticsWL) ops() []string { return []string{"ols", "cov", "qqr"} }

func (w *analyticsWL) setup() error {
	w.in = genAnalytics(w.cfg.size, w.cfg.seed)
	w.db = sql.NewDB()
	w.gov = exec.NewGovernor(0, 0)
	w.db.SetGovernor(w.gov)
	w.db.Register("trips", w.in.trips)
	w.db.Register("stations", w.in.stations)
	w.db.Register("pubs", w.in.pubs)
	w.db.Register("ranking", w.in.ranking)
	w.db.Register("u", w.in.u)
	w.opts = &core.Options{Tenant: analyticsTenant}
	for _, s := range analyticsStmts { // warm-up
		if _, err := w.db.ExecWith(s.sql, w.opts); err != nil {
			return fmt.Errorf("warm-up %s: %w", s.name, err)
		}
	}
	return nil
}

func (w *analyticsWL) run(p plan, tr *tracer) []opResult {
	var out []opResult
	var last time.Duration
	for done := 0; p.more(done, last); done++ {
		t0 := time.Now()
		for _, s := range analyticsStmts {
			out = append(out, w.statement(s, tr))
		}
		last = time.Since(t0)
	}
	return out
}

func (w *analyticsWL) statement(s shape, tr *tracer) opResult {
	opts := w.opts
	var st core.Stats
	if tr != nil {
		o := *w.opts
		o.Stats = &st
		opts = &o
	}
	var res *rel.Relation
	var err error
	t0, t1 := engineCall(&w.spent, func() { res, err = w.db.ExecWith(s.sql, opts) })
	r := opResult{op: s.name, dur: t1.Sub(t0)}
	if err == nil {
		err = w.check(s.name, res)
	}
	if err == nil && tr != nil {
		r.layer, err = w.tr.statement(tr, w, s.name, t0, t1, st)
	}
	r.ok = err == nil
	if err != nil {
		logFailure("analytics %s: %v", s.name, err)
	}
	return r
}

// check compares a statement's result with the plain-Go answer.
func (w *analyticsWL) check(name string, res *rel.Relation) error {
	switch name {
	case "ols":
		return checkOLS(res, w.ref.beta)
	case "cov":
		return checkCov(res, w.ref)
	case "qqr":
		return checkQ(res, w.ref.qRows, w.ref.qCols)
	}
	return fmt.Errorf("unknown statement %s", name)
}

func checkOLS(res *rel.Relation, want [2]float64) error {
	if res.NumRows() != 2 || res.NumCols() != 2 {
		return fmt.Errorf("ols: %dx%d result, want 2 coefficients", res.NumRows(), res.NumCols())
	}
	names, err := resultStrings(res, "C")
	if err != nil {
		return fmt.Errorf("ols: %w", err)
	}
	vals, err := resultFloats(res, res.Schema[1].Name)
	if err != nil {
		return fmt.Errorf("ols: %w", err)
	}
	for i, n := range names {
		k, ok := map[string]int{"b0": 0, "b1": 1}[n]
		if !ok {
			return fmt.Errorf("ols: unexpected coefficient %q", n)
		}
		if e := math.Abs(vals[i]-want[k]) / math.Abs(want[k]); !(e <= olsRelBound) {
			return fmt.Errorf("ols: %s = %v, want %v (relative error %.3g)", n, vals[i], want[k], e)
		}
	}
	return nil
}

func checkCov(res *rel.Relation, ref analyticsRef) error {
	if res.NumRows() != len(ref.cov) {
		return fmt.Errorf("cov: %d rows, want %d A++ conferences", res.NumRows(), len(ref.cov))
	}
	names, err := resultStrings(res, "C")
	if err != nil {
		return fmt.Errorf("cov: %w", err)
	}
	for j, d := range ref.confs {
		col, err := resultFloats(res, d)
		if err != nil {
			return fmt.Errorf("cov: %w", err)
		}
		for i, c := range names {
			want, ok := ref.cov[c]
			if !ok {
				return fmt.Errorf("cov: unexpected row %s", c)
			}
			if col[i] != want[j] {
				return fmt.Errorf("cov: (%s, %s) = %v, want %v", c, d, col[i], want[j])
			}
		}
	}
	return nil
}

// resultFloats returns a result column as floats, or an error when the
// result lacks it or it is not numeric.
func resultFloats(res *rel.Relation, name string) ([]float64, error) {
	c, err := res.Col(name)
	if err != nil {
		return nil, err
	}
	return c.Floats()
}

// resultCols returns named result columns as floats.
func resultCols(res *rel.Relation, names ...string) ([][]float64, error) {
	cols := make([][]float64, len(names))
	for i, n := range names {
		c, err := resultFloats(res, n)
		if err != nil {
			return nil, err
		}
		cols[i] = c
	}
	return cols, nil
}

// resultStrings returns a string column of a result.
func resultStrings(res *rel.Relation, name string) ([]string, error) {
	c, err := res.Col(name)
	if err != nil {
		return nil, err
	}
	if v := c.Vector(); v.Type() == bat.String {
		return v.Strings(), nil
	}
	return nil, fmt.Errorf("column %s is not a string column", name)
}

// checkQ verifies the row count and that Q has orthonormal columns.
func checkQ(res *rel.Relation, rows, cols int) error {
	if res.NumRows() != rows {
		return fmt.Errorf("qqr: %d rows, want %d", res.NumRows(), rows)
	}
	var q [][]float64
	for k, a := range res.Schema {
		if a.Type == bat.Float {
			f, err := res.Cols[k].Floats()
			if err != nil {
				return err
			}
			q = append(q, f)
		}
	}
	if len(q) != cols {
		return fmt.Errorf("qqr: %d columns of Q, want %d", len(q), cols)
	}
	for i := range q {
		for j := i; j < len(q); j++ {
			var s float64
			for r, v := range q[i] {
				s += v * q[j][r]
			}
			if i == j {
				s--
			}
			if !(math.Abs(s) <= qqrBound) {
				return fmt.Errorf("qqr: (QᵀQ - I)[%d][%d] = %.3g", i, j, s)
			}
		}
	}
	return nil
}

func (w *analyticsWL) peakBytes() (int64, error) {
	return tenantOf(w.gov, analyticsTenant).PeakBytes, nil
}

func (w *analyticsWL) close() {
	if w.tr != nil {
		w.tr.free()
		w.tr = nil
	}
	w.db = nil
}

// tenantOf returns a tenant's counters from a governor.
func tenantOf(g *exec.Governor, name string) exec.TenantStats {
	for _, t := range g.Metrics().Tenants {
		if t.Tenant == name {
			return t
		}
	}
	return exec.TenantStats{Tenant: name}
}

// Column accessors for generated relations, whose schemas are fixed.

func floats(r *rel.Relation, name string) []float64 {
	c, err := r.Col(name)
	if err != nil {
		panic(err)
	}
	f, err := c.Floats()
	if err != nil {
		panic(err)
	}
	return f
}

func ints(r *rel.Relation, name string) []int64 {
	c, err := r.Col(name)
	if err != nil {
		panic(err)
	}
	return c.Vector().Ints()
}

func strs(r *rel.Relation, name string) []string {
	c, err := r.Col(name)
	if err != nil {
		panic(err)
	}
	return c.Vector().Strings()
}

// analyticsTrace holds the traced pass's replay inputs.
type analyticsTrace struct {
	a, a2, v *rel.Relation       // OLS design and response, built in plain Go
	uBlock   *matrix.BlockMatrix // the qqr operand as tiles
	pBlock   *matrix.BlockMatrix // the cov operand as tiles
	hits0    int64
	miss0    int64
}

func (w *analyticsWL) traceCycles() int { return 3 }

func (w *analyticsWL) beginTrace() error {
	t := &analyticsTrace{}
	n := len(w.ref.x)
	id := make([]int64, n)
	ones := make([]float64, n)
	for i := range id {
		id[i] = int64(i)
		ones[i] = 1
	}
	t.a = rel.MustNew("A", rel.Schema{{Name: "i", Type: bat.Int}, {Name: "b0", Type: bat.Float}, {Name: "b1", Type: bat.Float}},
		[]*bat.BAT{bat.FromInts(id), bat.FromFloats(ones), bat.FromFloats(w.ref.x)})
	t.a2 = t.a.WithName("A2")
	t.v = rel.MustNew("V", rel.Schema{{Name: "i2", Type: bat.Int}, {Name: "dur", Type: bat.Float}},
		[]*bat.BAT{bat.FromInts(id), bat.FromFloats(w.ref.y)})
	var err error
	if t.uBlock, err = blockOf(w.in.u); err != nil {
		return err
	}
	if t.pBlock, err = blockOf(w.in.pubs); err != nil {
		return err
	}
	tot := tenantOf(w.gov, analyticsTenant).Total()
	t.hits0, t.miss0 = tot.PoolHits, tot.PoolMisses
	w.tr = t
	return nil
}

func (t *analyticsTrace) free() {
	t.uBlock.Free(nil)
	t.pBlock.Free(nil)
}

// blockOf tiles a relation's float columns.
func blockOf(r *rel.Relation) (*matrix.BlockMatrix, error) {
	var cols [][]float64
	for k, a := range r.Schema {
		if a.Type == bat.Float {
			f, err := r.Cols[k].Floats()
			if err != nil {
				return nil, err
			}
			cols = append(cols, f)
		}
	}
	return matrix.BlockOf(nil, matrix.FromColumns(cols), 0)
}

// statement records an analytics statement's spans — the statement,
// with its core.Stats phases as children — and replays its layer
// calls: the direct core call, and the relational or dense kernel the
// statement leans on.
func (t *analyticsTrace) statement(tr *tracer, w *analyticsWL, name string, t0, t1 time.Time, st core.Stats) (map[string]float64, error) {
	op := tr.newOp()
	root := tr.add(0, op, "sql", "analytics."+name, t0, t1, nil)
	// The phase durations are known, their positions are not: lay them
	// end to end at the close of the statement.
	at := t1.Add(-st.Total())
	for _, ph := range []struct {
		layer, name string
		d           time.Duration
	}{{"core", "core.context", st.Context}, {"core", "core.transform", st.Transform}, {"linalg", "core.kernel", st.Kernel}} {
		tr.add(root, op, ph.layer, ph.name, at, at.Add(ph.d), nil)
		at = at.Add(ph.d)
	}
	layer := map[string]float64{
		"sql.exec_ms." + name:        ms(t1.Sub(t0)),
		"core.context_ms." + name:    ms(st.Context),
		"core.transform_ms." + name:  ms(st.Transform),
		"core.kernel_ms." + name:     ms(st.Kernel),
		"sql.outside_rma_ms." + name: ms(t1.Sub(t0) - st.Total()),
	}
	// The direct core call the statement amounts to, timed whole and
	// by its own Stats: the difference is core time no phase covers.
	var dst core.Stats
	opts := &core.Options{Stats: &dst}
	d, err := tr.timed(root, op, "core", "core direct call", func() error {
		return t.direct(w, name, opts)
	})
	if err != nil {
		return nil, err
	}
	layer["core.untimed_ms."+name] = ms(d - dst.Total())
	switch name {
	case "ols":
		d, err := tr.timed(root, op, "rel", "rel.HashJoin trips⋈stations", func() error {
			_, err := rel.HashJoin(nil, w.in.trips, w.in.stations, []string{"start_station"}, []string{"code"}, rel.Inner)
			return err
		})
		if err != nil {
			return nil, err
		}
		layer["rel.join_ms.ols"] = ms(d)
	case "cov":
		var out *matrix.BlockMatrix
		d, err := tr.timed(root, op, "linalg", "linalg.SYRKBlocked", func() (err error) {
			out, err = linalg.SYRKBlocked(nil, t.pBlock)
			return err
		})
		if err != nil {
			return nil, err
		}
		out.Free(nil)
		m, n := float64(t.pBlock.Rows), float64(t.pBlock.Cols)
		layer["linalg.syrk_gflops"] = m * n * (n + 1) / d.Seconds() / 1e9
	case "qqr":
		d, err := tr.timed(root, op, "linalg", "linalg.QRBlocked", func() error {
			_, err := linalg.QRBlocked(nil, t.uBlock)
			return err
		})
		if err != nil {
			return nil, err
		}
		m, n := float64(t.uBlock.Rows), float64(t.uBlock.Cols)
		layer["linalg.qr_gflops"] = (2*m*n*n - 2*n*n*n/3) / d.Seconds() / 1e9
	}
	return layer, nil
}

// direct runs the core calls a statement amounts to, on inputs built
// outside the engine.
func (t *analyticsTrace) direct(w *analyticsWL, name string, opts *core.Options) error {
	switch name {
	case "ols":
		ata, err := core.Cpd(t.a, []string{"i"}, t.a2, []string{"i"}, opts)
		if err != nil {
			return err
		}
		inv, err := core.Inv(ata, []string{"C"}, opts)
		if err != nil {
			return err
		}
		atv, err := core.Cpd(t.a, []string{"i"}, t.v, []string{"i2"}, opts)
		if err != nil {
			return err
		}
		_, err = core.Mmu(inv, []string{"C"}, atv, []string{"C"}, opts)
		return err
	case "cov":
		_, err := core.Cpd(w.in.pubs, []string{"author"}, w.in.pubs.WithName("p2"), []string{"author"}, opts)
		return err
	default:
		_, err := core.Qqr(w.in.u, []string{"k"}, opts)
		return err
	}
}

func (w *analyticsWL) layerMetrics(ops []opResult) (map[string]metric, error) {
	out := map[string]metric{}
	for _, s := range analyticsStmts {
		for _, k := range []string{"sql.exec_ms.", "core.context_ms.", "core.transform_ms.", "core.kernel_ms.", "sql.outside_rma_ms.", "core.untimed_ms."} {
			out[k+s.name] = metric{layerP50(ops, k+s.name), "ms"}
		}
	}
	out["rel.join_ms.ols"] = metric{layerP50(ops, "rel.join_ms.ols"), "ms"}
	out["linalg.syrk_gflops"] = metric{layerP50(ops, "linalg.syrk_gflops"), "GFLOP/s"}
	out["linalg.qr_gflops"] = metric{layerP50(ops, "linalg.qr_gflops"), "GFLOP/s"}
	tot := tenantOf(w.gov, analyticsTenant).Total()
	h, m := tot.PoolHits-w.tr.hits0, tot.PoolMisses-w.tr.miss0
	out["exec.pool_hit_rate.analytics"] = metric{float64(h) / float64(max(h+m, 1)), "ratio"}
	return out, nil
}
