package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// workload is one traffic mix the benchmark drives.
type workload interface {
	// ops names the operation kinds in the order a cycle runs them.
	ops() []string
	// setup generates the inputs, starts what the mix needs, loads
	// the tables and warms up. A later setup replaces the earlier one.
	setup() error
	// run executes whole cycles of the mix until p says stop; with a
	// tracer it also records spans and replays layer calls.
	run(p plan, tr *tracer) []opResult
	// peakBytes is the highest tenant PeakBytes of the mix's clients.
	peakBytes() (int64, error)
	// cpu is the CPU time the engine has consumed so far: the server
	// process's, or the benchmark process's inside engine calls.
	cpu() (time.Duration, error)
	// close stops and removes everything setup made.
	close()

	// traceCycles is the number of cycles per client of each pass of
	// a traced run.
	traceCycles() int
	// beginTrace prepares the layer replays and snapshots the counters
	// the traced pass reads deltas of.
	beginTrace() error
	// layerMetrics derives the per-layer metrics from a traced pass.
	layerMetrics(traced []opResult) (map[string]metric, error)
}

// workloads maps a workload name to its constructor.
var workloads = map[string]func(cfg config, dir string) workload{
	"serve":     newServe,
	"analytics": newAnalytics,
	"ingest":    newIngest,
}

// workloadOrder is the order a traced run covers the workloads in.
var workloadOrder = []string{"serve", "analytics", "ingest"}

// opResult is one timed operation.
type opResult struct {
	op  string
	dur time.Duration
	ok  bool
	// layer holds per-op layer figures a traced pass collects, by
	// metric name.
	layer map[string]float64
}

// plan bounds a run: a fixed number of cycles per client, or, when
// cycles is 0, whole cycles for as long as the next one is expected to
// end before the deadline (at least one cycle always runs).
type plan struct {
	cycles   int
	deadline time.Time
}

// more reports whether a client that has run done cycles, the last
// taking last, should start another.
func (p plan) more(done int, last time.Duration) bool {
	if p.cycles > 0 {
		return done < p.cycles
	}
	return done == 0 || time.Now().Add(last).Before(p.deadline)
}

// runStats is what an untraced run measured.
type runStats struct {
	setups  []time.Duration
	ops     []opResult
	elapsed time.Duration
	cpu     time.Duration // engine CPU time over the measured window
	peak    int64
}

// measure sets the workload up cfg.setups times, keeping the last, and
// then runs it for cfg.seconds.
func measure(cfg config, w workload) (*runStats, error) {
	rs := &runStats{}
	for i := 0; i < cfg.setups; i++ {
		if i > 0 {
			w.close()
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s setup: %w", cfg.workload, err)
		}
		rs.setups = append(rs.setups, time.Since(t0))
	}
	cpu0, err := w.cpu()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rs.ops = w.run(plan{deadline: start.Add(time.Duration(cfg.seconds * float64(time.Second)))}, nil)
	rs.elapsed = time.Since(start)
	cpu1, err := w.cpu()
	if err != nil {
		return nil, err
	}
	rs.cpu = cpu1 - cpu0
	if rs.peak, err = w.peakBytes(); err != nil {
		return nil, fmt.Errorf("%s metrics: %w", cfg.workload, err)
	}
	return rs, nil
}

// processCPU is the user and system CPU time of this process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// engineCall times one synchronous engine call by the wall clock and
// adds the process CPU time it used to *spent.
func engineCall(spent *time.Duration, f func()) (t0, t1 time.Time) {
	c0 := processCPU()
	t0 = time.Now()
	f()
	t1 = time.Now()
	*spent += processCPU() - c0
	return t0, t1
}

// endToEnd turns an untraced run into the end-to-end metrics. A failed
// operation counts as attempted, as failed, and as infinitely slow in
// every latency figure.
func endToEnd(rs *runStats, kinds []string) *result {
	res := &result{attempted: len(rs.ops), report: map[string]any{}}
	var all []float64
	perOp := map[string][]float64{}
	ok := 0
	for _, o := range rs.ops {
		d := math.Inf(1)
		if o.ok {
			d = ms(o.dur)
			ok++
		} else {
			res.failed++
		}
		all = append(all, d)
		perOp[o.op] = append(perOp[o.op], d)
	}
	setups := make([]float64, len(rs.setups))
	for i, s := range rs.setups {
		setups[i] = s.Seconds()
	}
	opP50 := map[string]any{}
	counts := map[string]int{}
	fastest, slowest := math.Inf(1), math.Inf(-1)
	for _, k := range kinds {
		p := quantile(perOp[k], 0.5)
		opP50[k+"_p50_ms"] = finite(p)
		counts[k] = len(perOp[k])
		fastest = math.Min(fastest, p)
		slowest = math.Max(slowest, p)
	}
	res.metrics = map[string]metric{
		"setup_s":           {median(setups), "s"},
		"p50_ms":            {finite(quantile(all, 0.5)), "ms"},
		"p95_ms":            {finite(quantile(all, 0.95)), "ms"},
		"ops_per_s":         {float64(ok) / rs.elapsed.Seconds(), "1/s"},
		"peak_mib":          {float64(rs.peak) / (1 << 20), "MiB"},
		"cpu_ms_per_op":     {ms(rs.cpu) / float64(max(ok, 1)), "ms"},
		"fastest_op_p50_ms": {finite(fastest), "ms"},
		"slowest_op_p50_ms": {finite(slowest), "ms"},
	}
	res.report["ops"] = opP50
	res.report["op_counts"] = counts
	res.report["error_rate"] = float64(res.failed) / float64(max(res.attempted, 1))
	res.report["setups_s"] = setups
	res.report["measured_s"] = rs.elapsed.Seconds()
	return res
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN when xs is empty). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// finite maps the infinite latency of a failed operation (and the NaN
// of a missing one) to the largest float, which JSON can carry and no
// bound accepts.
func finite(x float64) float64 {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return math.MaxFloat64
	}
	return x
}

// p50Of returns the median latency in ms of the successful ops of kind
// op.
func p50Of(ops []opResult, op string) float64 {
	var xs []float64
	for _, o := range ops {
		if o.ok && o.op == op {
			xs = append(xs, ms(o.dur))
		}
	}
	return median(xs)
}

// layerP50 returns the median of a per-op layer figure over the ops
// that recorded it.
func layerP50(ops []opResult, name string) float64 {
	var xs []float64
	for _, o := range ops {
		if v, ok := o.layer[name]; ok {
			xs = append(xs, v)
		}
	}
	return median(xs)
}

// layerMean returns the mean of a per-op layer figure over the ops that
// recorded it.
func layerMean(ops []opResult, name string) float64 {
	var sum float64
	n := 0
	for _, o := range ops {
		if v, ok := o.layer[name]; ok {
			sum += v
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}
