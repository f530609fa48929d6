package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// A traced run covers all three workloads, so every per-layer metric
// is measured on every invocation. Each workload is set up once and
// runs the same fixed number of cycles twice: untraced, then traced.
// The traced pass records a span per operation and child spans for the
// layer calls the benchmark replays after it (the statement is their
// parent), and reads the program's own counters. The difference
// between the two passes' operation medians is the tracing overhead.
// Spans stay in memory until the run ends, then go to a JSON file.

// span is one timed interval at a layer boundary.
type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent"` // 0 for an operation's root span
	Op     int64            `json:"op"`
	Pass   string           `json:"workload"`
	Layer  string           `json:"layer"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"` // since the run began
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps the spans of a run in memory.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	pass   string
	nextID int64
	nextOp int64
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp returns a fresh operation id.
func (t *tracer) newOp() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

// add records a span and returns its id.
func (t *tracer) add(parent, op int64, layer, name string, start, end time.Time, counts map[string]int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.spans = append(t.spans, span{
		ID: t.nextID, Parent: parent, Op: op, Pass: t.pass, Layer: layer, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Counts: counts,
	})
	return t.nextID
}

// timed runs f as a child span of parent and returns its duration.
func (t *tracer) timed(parent, op int64, layer, name string, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	t.add(parent, op, layer, name, start, end, nil)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return end.Sub(start), nil
}

// selfTimes sums each layer's self time per workload: a span's
// duration minus the part of its interval its children cover.
func (t *tracer) selfTimes() map[string]map[string]float64 {
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]map[string]float64{}
	for _, s := range t.spans {
		var iv [][2]int64
		for _, c := range children[s.ID] {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if lo < hi {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		self := (s.End - s.Start) - covered(iv)
		if out[s.Pass] == nil {
			out[s.Pass] = map[string]float64{}
		}
		out[s.Pass][s.Layer] += float64(self) / 1e6
	}
	return out
}

// covered returns the total length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end int64 = 0, math.MinInt64
	for _, x := range iv {
		lo := max(x[0], end)
		if x[1] > lo {
			total += x[1] - lo
		}
		end = max(end, x[1])
	}
	return total
}

// traced runs the traced passes of every workload and reports the
// per-layer metrics.
func traced(cfg config, scratch string) (*result, error) {
	tr := newTracer()
	res := &result{metrics: map[string]metric{}, report: map[string]any{}}
	overhead := map[string]any{}
	opsPerPass := map[string]int{}
	for _, name := range workloadOrder {
		c := cfg
		c.workload = name
		w := workloads[name](c, scratch)
		err := tracePass(w, tr, name, res, overhead)
		w.close()
		if err != nil {
			return nil, fmt.Errorf("traced %s: %w", name, err)
		}
		opsPerPass[name] = int(tr.nextOp)
	}
	// Self time per layer, per operation of the workload.
	self := tr.selfTimes()
	prev := 0
	perOp := map[string]any{}
	for _, name := range workloadOrder {
		n := opsPerPass[name] - prev
		prev = opsPerPass[name]
		layers := map[string]float64{}
		for l, v := range self[name] {
			layers[l] = v / float64(max(n, 1))
		}
		perOp[name] = layers
	}
	path := filepath.Join(cfg.work, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := writeSpans(path, tr.spans); err != nil {
		return nil, err
	}
	res.report["self_ms_per_op"] = perOp
	res.report["trace_overhead_pct"] = overhead
	res.report["spans"] = len(tr.spans)
	res.report["spans_file"] = path
	return res, nil
}

// tracePass sets w up once and runs its untraced and traced passes.
func tracePass(w workload, tr *tracer, name string, res *result, overhead map[string]any) error {
	if err := w.setup(); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	p := plan{cycles: w.traceCycles()}
	plain := w.run(p, nil)
	if err := w.beginTrace(); err != nil {
		return err
	}
	tr.mu.Lock()
	tr.pass = name
	tr.mu.Unlock()
	withSpans := w.run(p, tr)
	for _, o := range append(plain, withSpans...) {
		res.attempted++
		if !o.ok {
			res.failed++
		}
	}
	layers, err := w.layerMetrics(withSpans)
	if err != nil {
		return err
	}
	for k, v := range layers {
		v.Value = finite(v.Value)
		res.metrics[k] = v
	}
	var base, with float64
	for _, op := range w.ops() {
		base += p50Of(plain, op)
		with += p50Of(withSpans, op)
	}
	pct := finite(100 * (with/base - 1))
	res.metrics["trace.overhead_pct."+name] = metric{pct, "%"}
	overhead[name] = pct
	return nil
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
