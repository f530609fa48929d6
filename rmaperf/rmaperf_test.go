package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

// The self-test runs every workload at tiny sizes. Run it from this
// directory with `go test .`; it builds rmaserver from the same tree.

// benchSpec is the part of BENCHMARK.json the self-test checks against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// serverBin builds rmaserver once per test binary.
var serverBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "rmaperf-test-")
	if err != nil {
		panic(err)
	}
	serverBin = filepath.Join(dir, "rmaserver")
	cmd := exec.Command("go", "build", "-o", serverBin, "repro/cmd/rmaserver")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func tinyConfig(t *testing.T, workload string) config {
	return config{
		workload: workload, seed: 3, seconds: 0.5, server: serverBin,
		work: t.TempDir(), root: "..", setups: 2, size: tinySizes,
	}
}

// names returns a metric map's keys, and a spec list's names, sorted.
func names(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func equalNames(t *testing.T, what string, got []string, want []string) {
	t.Helper()
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("%s: emitted %d metrics %v, BENCHMARK.json names %d %v", what, len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: emitted %v, BENCHMARK.json names %v", what, got, want)
		}
	}
}

// TestEndToEndMetricsEmitted runs each workload untraced and checks it
// reports exactly the end-to-end metrics BENCHMARK.json declares, with
// their units, every answer correct, and no zero values.
func TestEndToEndMetricsEmitted(t *testing.T) {
	spec := loadSpec(t)
	units := map[string]string{}
	var want []string
	for _, m := range spec.EndToEnd {
		want = append(want, m.Name)
		units[m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := run(tinyConfig(t, w.Name))
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%d of %d ops failed", res.failed, res.attempted)
			}
			equalNames(t, w.Name, names(res.metrics), append([]string(nil), want...))
			for k, m := range res.metrics {
				if m.Unit != units[k] {
					t.Errorf("%s: unit %q, BENCHMARK.json says %q", k, m.Unit, units[k])
				}
				if m.Value <= 0 {
					t.Errorf("%s = %v, want > 0", k, m.Value)
				}
			}
		})
	}
}

// TestTracedRun checks the traced run reports exactly the per-layer
// metrics BENCHMARK.json declares, links every span to an existing
// parent, and actually spills on the ingest workload.
func TestTracedRun(t *testing.T) {
	spec := loadSpec(t)
	var want []string
	units := map[string]string{}
	for _, m := range spec.PerLayer {
		want = append(want, m.Name)
		units[m.Name] = m.Unit
	}
	cfg := tinyConfig(t, "serve")
	cfg.trace = true
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("%d of %d traced ops failed", res.failed, res.attempted)
	}
	equalNames(t, "traced", names(res.metrics), want)
	for k, m := range res.metrics {
		if m.Unit != units[k] {
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", k, m.Unit, units[k])
		}
	}
	if ev := res.metrics["exec.spill_events"].Value; ev <= 0 {
		t.Errorf("exec.spill_events = %v: the ingest join-group did not spill", ev)
	}

	b, err := os.ReadFile(res.report["spans_file"].(string))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatal(err)
	}
	byID := map[int64]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	children := 0
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		children++
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %d %s: parent %d missing", s.ID, s.Name, s.Parent)
		}
		if p.Op != s.Op {
			t.Errorf("span %d %s: op %d, parent's op %d", s.ID, s.Name, s.Op, p.Op)
		}
	}
	if children == 0 {
		t.Error("no child spans recorded")
	}
}

// TestWrongAnswerIsAFailure perturbs every expected answer and checks
// each workload reports the ops as failed.
func TestWrongAnswerIsAFailure(t *testing.T) {
	for _, w := range workloadOrder {
		t.Run(w, func(t *testing.T) {
			cfg := tinyConfig(t, w)
			cfg.corrupt = true
			cfg.setups = 1
			res, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rate := res.report["error_rate"].(float64); !(rate > 0) || res.failed == 0 {
				t.Fatalf("error_rate = %v with %d failed of %d: a wrong answer went unnoticed", rate, res.failed, res.attempted)
			}
		})
	}
}
