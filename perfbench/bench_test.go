package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// tinyEvents is the self-test's event count per workload.
const tinyEvents = 6000

// tinyInput builds a workload's input at self-test scale; the migration
// workload migrates every 1,000 tuples so that a tiny run still crosses
// several transitions.
func tinyInput(t *testing.T, s spec, seed int64) *input {
	t.Helper()
	if s.migrateEvery > 0 {
		s.migrateEvery = 1000
	}
	in, err := newInput(s, seed, tinyEvents)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// deterministic are the counts that must repeat exactly across runs of
// one seed.
var deterministic = []string{
	"core.completions", "core.completed_entries", "core.transitions",
	"engine.probes_per_tuple", "state.bytes", "statestore.faults_per_tuple",
}

func TestWorkloadsTiny(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			var e2e, tr [2]*result
			for i := range e2e {
				in := tinyInput(t, s, 7)
				if in.ref == 0 {
					t.Fatal("reference produced no results")
				}
				var err error
				if e2e[i], err = endToEnd(in, t.TempDir()); err != nil {
					t.Fatal(err)
				}
				if tr[i], err = traced(in, t.TempDir(), filepath.Join(t.TempDir(), "spans.csv")); err != nil {
					t.Fatal(err)
				}
				for _, r := range []*result{e2e[i], tr[i]} {
					if !r.correct || r.failed > 0 {
						t.Fatalf("run %d: correct=%v failed=%d: %v", i, r.correct, r.failed, r.problems)
					}
				}
				if got := e2e[i].metrics["outputs"].Value; got != float64(in.ref) {
					t.Fatalf("outputs = %v, reference %d", got, in.ref)
				}
			}
			if a, b := e2e[0].metrics["outputs"], e2e[1].metrics["outputs"]; a != b {
				t.Errorf("outputs differ across runs of one seed: %v vs %v", a.Value, b.Value)
			}
			for _, name := range deterministic {
				if a, b := tr[0].metrics[name], tr[1].metrics[name]; a != b {
					t.Errorf("%s differs across runs of one seed: %v vs %v", name, a.Value, b.Value)
				}
			}
			switch {
			case s.migrateEvery > 0:
				if tr[0].metrics["core.completions"].Value == 0 || tr[0].metrics["core.transitions"].Value == 0 {
					t.Error("migration workload ran no lazy completion")
				}
			case s.budget > 0:
				if tr[0].metrics["statestore.faults_per_tuple"].Value == 0 {
					t.Error("spill workload never faulted")
				}
			}
			checkPrinted(t, e2e[0], endToEndMetrics)
			checkPrinted(t, tr[0], perLayerMetrics)
		})
	}
}

// checkPrinted checks that a run prints exactly the declared metrics.
func checkPrinted(t *testing.T, r *result, want []decl) {
	t.Helper()
	if len(r.metrics) != len(want) {
		t.Errorf("printed %d metrics, declared %d", len(r.metrics), len(want))
	}
	for _, d := range want {
		if m, ok := r.metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("metric %s: printed %+v, declared unit %s", d.name, m, d.unit)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// metrics the benchmark prints, with the same units, and the workloads
// it runs.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, specs[i].name)
		}
	}
	var e2e, layer []decl
	for _, m := range b.EndToEnd {
		e2e = append(e2e, decl{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		layer = append(layer, decl{m.Name, m.Unit})
	}
	sameDecls(t, "end_to_end", e2e, endToEndMetrics)
	sameDecls(t, "per_layer", layer, perLayerMetrics)
}

func sameDecls(t *testing.T, what string, got, want []decl) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark %d", what, len(got), len(want))
		return
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s[%d]: BENCHMARK.json %v, benchmark %v", what, i, got[i], want[i])
		}
	}
}
