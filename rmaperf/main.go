// Command rmaperf is the repository's end-to-end benchmark. It drives
// the engine from outside, the way its users do, on three workloads:
//
//	serve      rmaserver over loopback HTTP, two closed-loop clients
//	analytics  in-process sql.DB running the paper's mixed statements
//	ingest     in-process sql.DB writing a PERSIST table beside reads
//
// Every operation's result is checked against an independent plain-Go
// computation over the generated inputs; a wrong result counts as a
// failed operation. The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: with -trace 0 the
// end-to-end metrics of the workload, with -trace 1 the per-layer
// metrics of a separate traced run. The line before it is a report with
// the host, the seed, the source tree and the per-operation figures.
//
// Build and run it through run.sh from the repository root:
//
//	bash rmaperf/run.sh --workload serve --seed 1 --seconds 15 --trace 0
//
// See README.md for the metrics and what each should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	server   string // path of the rmaserver binary
	work     string // scratch directory for data, spill and trace files
	root     string // repository root, for the source digest
	setups   int    // set-ups per run; setup_s is their median
	size     sizes
	// corrupt perturbs every expected answer, so each correct result
	// reads as wrong; the self-test uses it to prove the checks bite.
	corrupt bool
}

func main() {
	cfg := config{setups: 3, size: fullSizes}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: serve, analytics or ingest")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.server, "server", "", "rmaserver binary (required for serve and traced runs)")
	flag.StringVar(&cfg.work, "work", filepath.Join(".bench_build", "rmaperf"), "scratch directory")
	flag.StringVar(&cfg.root, "root", ".", "repository root")
	flag.Parse()
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok {
		fatalf("unknown -workload %q (want serve, analytics or ingest)", cfg.workload)
	}
	if (cfg.workload == "serve" || cfg.trace) && cfg.server == "" {
		fatalf("-server is required for the serve workload and for traced runs")
	}
	res, err := run(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	if err := emit(os.Stdout, cfg, res); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rmaperf: "+format+"\n", args...)
	os.Exit(1)
}

// result is what one invocation reports.
type result struct {
	attempted, failed int
	metrics           map[string]metric
	// report carries everything the gated metrics do not: the
	// per-operation figures, the error rate, span summaries.
	report map[string]any
}

// metric is one named figure in the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes the invocation in a private scratch directory that is
// removed afterwards, except for the trace files.
func run(cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(cfg.work, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	if cfg.trace {
		return traced(cfg, scratch)
	}
	w := workloads[cfg.workload](cfg, scratch)
	defer w.close()
	rs, err := measure(cfg, w)
	if err != nil {
		return nil, err
	}
	return endToEnd(rs, w.ops()), nil
}

// emit prints the report line and, last, the result line.
func emit(out io.Writer, cfg config, res *result) error {
	rep := map[string]any{
		"workload": cfg.workload,
		"seed":     cfg.seed,
		"seconds":  cfg.seconds,
		"trace":    cfg.trace,
		"host":     hostInfo(),
		"commit":   commitOf(cfg.root),
		"source":   sourceDigest(cfg.root),
	}
	for k, v := range res.report {
		rep[k] = v
	}
	line, err := json.Marshal(map[string]any{"report": rep})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	line, err = json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, res.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

// hostInfo records what the figures were measured on.
func hostInfo() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// commitOf names the measured commit: RMAPERF_COMMIT when set, else
// git's HEAD, else "unknown" (an exported checkout has no history; the
// source digest still identifies the tree).
func commitOf(root string) string {
	if c := os.Getenv("RMAPERF_COMMIT"); c != "" {
		return c
	}
	abs, err := filepath.Abs(root)
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "-C", abs, "rev-parse", "HEAD")
	// Only the tree's own repository counts, not one enclosing it.
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(abs))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file of the tree, so
// a report identifies the code it measured even without a commit.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sizes are the generated input sizes.
type sizes struct {
	factRows, dimRows int   // serve: t and s
	trips, stations   int   // analytics: ols inputs
	authors, confs    int   // analytics: cov inputs
	uRows, uCols      int   // analytics: qqr input
	batchRows, groups int   // ingest: the batch and its group keys
	rounds            int   // ingest: rounds per epoch
	joinRows          int   // rows per side of the rel.join_allocs probe
	spillThreshold    int64 // ingest: operator bytes above which it spills
}

// fullSizes are the benchmark's sizes. uRows x uCols is 1<<22
// elements, the gate above which core takes the tiled kernels.
var fullSizes = sizes{
	factRows: 65536, dimRows: 500,
	trips: 262144, stations: 400,
	authors: 20000, confs: 200,
	uRows: 131072, uCols: 32,
	batchRows: 8192, groups: 1024, rounds: 16,
	joinRows:       131072,
	spillThreshold: 32 << 10,
}

// tinySizes keep the self-test fast.
var tinySizes = sizes{
	factRows: 4096, dimRows: 50,
	trips: 4096, stations: 40,
	authors: 400, confs: 20,
	uRows: 1024, uCols: 8,
	batchRows: 512, groups: 128, rounds: 4,
	joinRows:       4096,
	spillThreshold: 4 << 10,
}

// failures counts logged operation failures; only the first few are
// printed.
var failures atomic.Int64

func logFailure(format string, args ...any) {
	if failures.Add(1) <= 10 {
		fmt.Fprintf(os.Stderr, "rmaperf: "+format+"\n", args...)
	}
}
