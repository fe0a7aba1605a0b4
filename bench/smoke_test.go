package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"testing"
	"time"

	"agilepower"
	"agilepower/internal/experiments"
)

// declared is the part of BENCHMARK.json the harness must agree with.
type declared struct {
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

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// tinyWorkloads are the workloads at a size that runs in well under a
// second each; paper-quick renders one characterization experiment in
// place of the whole suite.
func tinyWorkloads() []workload {
	classes := []agilepower.HostClass{{Count: 6, Cores: 16, MemoryGB: 256}, {Count: 2, Cores: 32, MemoryGB: 512}}
	return []workload{
		paperQuick(func(w io.Writer, o experiments.Options) error {
			fmt.Fprint(w, "\n=== experiment t1 ===\n")
			return experiments.Run("t1", w, o)
		}, 1, ""),
		simFleet("dc-policies", classes, agilepower.DiurnalFleet, 32, time.Hour, agilepower.Policies()),
		simFleet("fleet-static", classes, agilepower.MixedFleet, 32, time.Hour, []agilepower.Policy{agilepower.Static}),
		opsChaos(1, 24),
		service(8, 4, 8, 2),
	}
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	var want, got, tiny []string
	for _, w := range readDeclared(t).Workloads {
		want = append(want, w.Name)
	}
	for _, w := range allWorkloads() {
		got = append(got, w.name)
	}
	for _, w := range tinyWorkloads() {
		tiny = append(tiny, w.name)
	}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(tiny, want) {
		t.Errorf("workloads %v (tiny %v), BENCHMARK.json declares %v", got, tiny, want)
	}
}

// TestSmokeEmitsDeclaredMetrics runs every workload once at a tiny size,
// untraced and traced, and checks it passes its own output checks and
// reports exactly the metrics BENCHMARK.json declares, with their units.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	d := readDeclared(t)
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range d.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, w := range tinyWorkloads() {
		for _, trace := range []bool{false, true} {
			rec, err := execute(w, config{seed: 1, trace: trace, traceDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, rec.Correct, rec.Attempted, rec.Failed)
			}
			got := map[string]string{}
			for name, m := range rec.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want[trace]) {
				t.Errorf("%s trace=%v emits %v, BENCHMARK.json declares %v", w.name, trace, got, want[trace])
			}
		}
	}
}
