package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/bat"
	"repro/internal/rel"
	"repro/internal/sql"
)

// The serve workload: rmaserver on loopback HTTP, built from the same
// tree, with two closed-loop connections, each under its own API key
// and tenant, cycling five cached statement shapes over a fact table
// t(grp, val, w) and a dimension s(k, bonus) loaded through /query.

// shape is one served statement.
type shape struct{ name, sql string }

var serveShapes = []shape{
	{"join_group", "SELECT grp AS g, SUM(val) AS sv, SUM(w) AS sw, COUNT(*) AS n " +
		"FROM t JOIN s ON t.grp = s.k WHERE t.val > 0 GROUP BY grp ORDER BY g"},
	{"topk", "SELECT val FROM t ORDER BY val LIMIT 10"},
	{"scan", "SELECT grp, val FROM t WHERE val > 50 LIMIT 100"},
	{"point", "SELECT grp, val, w FROM t WHERE grp = 7 LIMIT 5"},
	{"export", "SELECT grp, val, w FROM t WHERE w < 4"},
}

// serveClients is the number of closed-loop connections (one per
// core of the 2-core reference host), each its own tenant.
const serveClients = 2

// serveData is the generated catalog: t(grp, val, w) and s(k, bonus).
// Values are multiples of 1/16, so every sum the statements compute is
// exact in float64 and the checks compare bit for bit.
type serveData struct {
	grp    []int64
	val, w []float64
	k      []int64
	bonus  []float64
}

func genServe(sz sizes, seed int64) *serveData {
	rng := rand.New(rand.NewSource(seed))
	d := &serveData{
		grp: make([]int64, sz.factRows), val: make([]float64, sz.factRows), w: make([]float64, sz.factRows),
		k: make([]int64, sz.dimRows), bonus: make([]float64, sz.dimRows),
	}
	for i := range d.grp {
		d.grp[i] = int64(rng.Intn(97))
		d.val[i] = float64(rng.Intn(400))*0.25 - 20
		d.w[i] = float64(rng.Intn(997)) * 0.0625
	}
	for j := range d.k {
		d.k[j] = int64(rng.Intn(120))
		d.bonus[j] = float64(rng.Intn(17)) * 0.5
	}
	return d
}

// loadScript returns the statements that create and fill t and s, in
// INSERT batches of one morsel each.
func (d *serveData) loadScript() []string {
	stmts := []string{"CREATE TABLE t (grp INT, val DOUBLE, w DOUBLE); CREATE TABLE s (k INT, bonus DOUBLE)"}
	for lo := 0; lo < len(d.grp); lo += bat.MorselSize {
		var b strings.Builder
		b.WriteString("INSERT INTO t VALUES ")
		for i := lo; i < min(lo+bat.MorselSize, len(d.grp)); i++ {
			if i > lo {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "(%d,%s,%s)", d.grp[i], sqlFloat(d.val[i]), sqlFloat(d.w[i]))
		}
		stmts = append(stmts, b.String())
	}
	var b strings.Builder
	b.WriteString("INSERT INTO s VALUES ")
	for j := range d.k {
		if j > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "(%d,%s)", d.k[j], sqlFloat(d.bonus[j]))
	}
	return append(stmts, b.String())
}

// sqlFloat formats a float literal that parses back to the same bits.
func sqlFloat(f float64) string {
	s := strconv.FormatFloat(f, 'g', -1, 64)
	if !strings.ContainsAny(s, ".e") {
		s += ".0"
	}
	return s
}

// relations returns t and s as in-memory relations, for layer replays.
func (d *serveData) relations() (t, s *rel.Relation) {
	t = rel.MustNew("t", rel.Schema{
		{Name: "grp", Type: bat.Int}, {Name: "val", Type: bat.Float}, {Name: "w", Type: bat.Float},
	}, []*bat.BAT{bat.FromInts(d.grp), bat.FromFloats(d.val), bat.FromFloats(d.w)})
	s = rel.MustNew("s", rel.Schema{
		{Name: "k", Type: bat.Int}, {Name: "bonus", Type: bat.Float},
	}, []*bat.BAT{bat.FromInts(d.k), bat.FromFloats(d.bonus)})
	return t, s
}

// expect computes each shape's answer with plain loops over the
// generated columns, column-major.
func (d *serveData) expect() map[string][][]float64 {
	want := map[string][][]float64{}
	// join_group: every t row with val > 0 pairs with each s row whose
	// k equals its grp.
	matches := map[int64]int{}
	for _, k := range d.k {
		matches[k]++
	}
	type acc struct{ sv, sw, n float64 }
	groups := map[int64]*acc{}
	for i, g := range d.grp {
		m := matches[g]
		if d.val[i] <= 0 || m == 0 {
			continue
		}
		a := groups[g]
		if a == nil {
			a = &acc{}
			groups[g] = a
		}
		a.sv += d.val[i] * float64(m)
		a.sw += d.w[i] * float64(m)
		a.n += float64(m)
	}
	var jg [4][]float64
	for g := int64(0); g < 97; g++ {
		if a := groups[g]; a != nil {
			jg[0] = append(jg[0], float64(g))
			jg[1] = append(jg[1], a.sv)
			jg[2] = append(jg[2], a.sw)
			jg[3] = append(jg[3], a.n)
		}
	}
	want["join_group"] = jg[:]

	sorted := append([]float64(nil), d.val...)
	sort.Float64s(sorted)
	want["topk"] = [][]float64{sorted[:min(10, len(sorted))]}

	var scan [2][]float64
	var point, export [3][]float64
	for i := range d.grp {
		if d.val[i] > 50 && len(scan[0]) < 100 {
			scan[0] = append(scan[0], float64(d.grp[i]))
			scan[1] = append(scan[1], d.val[i])
		}
		if d.grp[i] == 7 && len(point[0]) < 5 {
			point[0] = append(point[0], 7)
			point[1] = append(point[1], d.val[i])
			point[2] = append(point[2], d.w[i])
		}
		if d.w[i] < 4 {
			export[0] = append(export[0], float64(d.grp[i]))
			export[1] = append(export[1], d.val[i])
			export[2] = append(export[2], d.w[i])
		}
	}
	want["scan"] = scan[:]
	want["point"] = point[:]
	want["export"] = export[:]
	return want
}

// serveWL is the serve workload's state.
type serveWL struct {
	cfg    config
	dir    string
	starts int
	data   *serveData
	want   map[string][][]float64
	srv    *server
	conns  []*client
	replay *serveReplay // traced runs only
}

func newServe(cfg config, dir string) workload {
	w := &serveWL{cfg: cfg, dir: dir}
	w.want = genServe(cfg.size, cfg.seed).expect()
	if cfg.corrupt {
		corrupt(w.want)
	}
	return w
}

func (w *serveWL) ops() []string {
	names := make([]string, len(serveShapes))
	for i, s := range serveShapes {
		names[i] = s.name
	}
	return names
}

func (w *serveWL) setup() error {
	w.data = genServe(w.cfg.size, w.cfg.seed)
	w.starts++
	srv, err := startServer(w.cfg.server, filepath.Join(w.dir, fmt.Sprintf("server-%d.log", w.starts)))
	if err != nil {
		return err
	}
	w.srv = srv
	loader := newClient(srv.base, "load")
	for _, stmt := range w.data.loadScript() {
		if _, err := loader.query(stmt); err != nil {
			return fmt.Errorf("load: %w", err)
		}
	}
	w.conns = nil
	for c := 0; c < serveClients; c++ {
		cl := newClient(srv.base, fmt.Sprintf("c%d", c))
		for _, s := range serveShapes { // warm the plan cache and pools
			if _, err := cl.query(s.sql); err != nil {
				return fmt.Errorf("warm-up %s: %w", s.name, err)
			}
		}
		w.conns = append(w.conns, cl)
	}
	return nil
}

func (w *serveWL) run(p plan, tr *tracer) []opResult {
	out := make([][]opResult, len(w.conns))
	var wg sync.WaitGroup
	for c, cl := range w.conns {
		wg.Add(1)
		go func(c int, cl *client) {
			defer wg.Done()
			var last time.Duration
			for done := 0; p.more(done, last); done++ {
				t0 := time.Now()
				for i := range serveShapes {
					sh := serveShapes[(c+i)%len(serveShapes)]
					out[c] = append(out[c], w.statement(cl, sh, tr))
				}
				last = time.Since(t0)
			}
		}(c, cl)
	}
	wg.Wait()
	var all []opResult
	for _, o := range out {
		all = append(all, o...)
	}
	return all
}

// statement runs one served statement and checks its answer; traced,
// it also records the statement's spans and replays its layer calls.
func (w *serveWL) statement(cl *client, sh shape, tr *tracer) opResult {
	t0 := time.Now()
	body, err := cl.query(sh.sql)
	t1 := time.Now()
	r := opResult{op: sh.name, dur: t1.Sub(t0)}
	var elapsed time.Duration
	if err == nil {
		elapsed, err = cl.check(sh.name, body, w.want[sh.name])
	}
	if err == nil && tr != nil {
		r.layer, err = w.replay.statement(tr, sh, t0, t1, elapsed, len(body))
	}
	r.ok = err == nil
	if err != nil {
		logFailure("serve %s: %v", sh.name, err)
	}
	return r
}

func (w *serveWL) peakBytes() (int64, error) {
	m, err := w.srv.metrics()
	if err != nil {
		return 0, err
	}
	var peak int64
	for _, t := range m.Memory.Tenants {
		if strings.HasPrefix(t.Tenant, "client") {
			peak = max(peak, t.PeakBytes)
		}
	}
	return peak, nil
}

// cpu reads the server process's user and system time from
// /proc/<pid>/stat.
func (w *serveWL) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", w.srv.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("rmaserver CPU time: %w", err)
	}
	// Fields after the parenthesised command name start at field 3.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("rmaserver CPU time: short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("rmaserver CPU time: bad /proc stat line")
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// clockTicks is the kernel's USER_HZ, the unit of /proc CPU times; it
// is 100 on every Linux platform Go supports.
const clockTicks = 100

// poolCounts sums the clients' arena pool hits and misses.
func (w *serveWL) poolCounts() (hits, misses int64, err error) {
	m, err := w.srv.metrics()
	if err != nil {
		return 0, 0, err
	}
	for _, t := range m.Memory.Tenants {
		if strings.HasPrefix(t.Tenant, "client") {
			tot := t.Total()
			hits += tot.PoolHits
			misses += tot.PoolMisses
		}
	}
	return hits, misses, nil
}

func (w *serveWL) close() {
	if w.srv != nil {
		if err := w.srv.stop(); err != nil {
			fmt.Fprintf(os.Stderr, "rmaperf: stop rmaserver: %v\n", err)
		}
		w.srv = nil
	}
}

// --- rmaserver process ----------------------------------------------------

// server is a running rmaserver child process.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once the process has exited
	err  error         // Wait's result, valid after done
	log  *os.File
}

// serverKeys gives the loader and each client its own API key and
// tenant; budget 0 keeps every tenant accounted but uncapped.
const serverKeys = "load=loader:0,c0=client0:0,c1=client1:0"

// startServer starts rmaserver on a free loopback port and waits until
// it answers /healthz.
func startServer(bin, logPath string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-keys", serverKeys, "-drain", "10s")
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The server dies with the benchmark even if the benchmark itself
	// is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start rmaserver: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan struct{}), log: logf}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.done:
			logf.Close()
			return nil, fmt.Errorf("rmaserver exited during start-up: %v (log %s)", s.err, logPath)
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("rmaserver did not become healthy on %s", addr)
		}
	}
}

// stop drains the server with SIGTERM, kills it if it does not exit in
// time, and waits for the process to end.
func (s *server) stop() error {
	defer s.log.Close()
	select {
	case <-s.done:
		return s.err
	default:
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
		return s.err
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
		return errors.New("rmaserver did not drain in time; killed")
	}
}

// serverMetrics is the part of GET /metrics the benchmark reads.
type serverMetrics struct {
	Memory sql.Metrics `json:"memory"`
}

func (s *server) metrics() (*serverMetrics, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m serverMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return &m, nil
}

// --- client ---------------------------------------------------------------

// client is one keep-alive connection under one API key.
type client struct {
	http *http.Client
	url  string
	key  string
	// verified holds, per shape, a response body already checked
	// against the expected answer, cut before its elapsed_us field; an
	// identical later body needs no second decode.
	verified map[string][]byte
}

func newClient(base, key string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr}, url: base + "/query", key: key, verified: map[string][]byte{}}
}

// query posts one statement and returns the response body of a 200.
func (c *client) query(stmt string) ([]byte, error) {
	payload, err := json.Marshal(map[string]string{"sql": stmt})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-API-Key", c.key)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// wireResult is rmaserver's streamed result encoding.
type wireResult struct {
	Batches []struct {
		Cols [][]float64 `json:"cols"`
	} `json:"batches"`
	Rows      int   `json:"rows"`
	ElapsedUs int64 `json:"elapsed_us"`
}

// check compares a result body with the expected columns and returns
// the server-reported execution time.
func (c *client) check(name string, body []byte, want [][]float64) (time.Duration, error) {
	cut := bytes.LastIndex(body, []byte(`"elapsed_us":`))
	if cut < 0 {
		return 0, fmt.Errorf("no elapsed_us in response")
	}
	us, err := strconv.ParseInt(string(bytes.TrimRight(body[cut+len(`"elapsed_us":`):], "}\n ")), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad elapsed_us: %w", err)
	}
	elapsed := time.Duration(us) * time.Microsecond
	if v, ok := c.verified[name]; ok && bytes.Equal(v, body[:cut]) {
		return elapsed, nil
	}
	var res wireResult
	if err := json.Unmarshal(body, &res); err != nil {
		return 0, fmt.Errorf("decode result: %w", err)
	}
	got := make([][]float64, len(want))
	for _, b := range res.Batches {
		if len(b.Cols) != len(want) {
			return 0, fmt.Errorf("%d columns, want %d", len(b.Cols), len(want))
		}
		for k, col := range b.Cols {
			got[k] = append(got[k], col...)
		}
	}
	if err := equalCols(got, want); err != nil {
		return 0, err
	}
	c.verified[name] = append([]byte(nil), body[:cut]...)
	return elapsed, nil
}

// equalCols compares result columns with the expected ones exactly.
func equalCols(got, want [][]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d columns, want %d", len(got), len(want))
	}
	for k := range want {
		if len(got[k]) != len(want[k]) {
			return fmt.Errorf("column %d: %d rows, want %d", k, len(got[k]), len(want[k]))
		}
		for i := range want[k] {
			if got[k][i] != want[k][i] {
				return fmt.Errorf("column %d row %d: got %v, want %v", k, i, got[k][i], want[k][i])
			}
		}
	}
	return nil
}

// corrupt perturbs the first cell of every expected answer.
func corrupt(want map[string][][]float64) {
	for _, cols := range want {
		if len(cols) > 0 && len(cols[0]) > 0 {
			cols[0][0]++
		}
	}
}
