package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestToyRun builds the benchmark and runs every workload at toy scale,
// untraced and traced: each must pass its output checks and print
// exactly the metrics BENCHMARK.json declares. Guarded by -short
// because it shells out to the Go toolchain.
func TestToyRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping benchmark smoke run")
	}
	spec := readSpec(t)
	dir := t.TempDir()
	bin := filepath.Join(dir, "bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building the benchmark: %v\n%s", err, out)
	}
	for _, trace := range []string{"0", "1"} {
		cmd := exec.Command(bin, "-toy", "-seconds", "0.3", "-seed", "4", "-trace", trace,
			"-root", "..", "-out", filepath.Join(dir, "out"))
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("-trace %s: %v\n%s", trace, err, out)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("-trace %s: result line: %v", trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("-trace %s: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
		}
		want := spec.EndToEnd
		if trace == "1" {
			want = spec.PerLayer
		}
		for _, w := range spec.Workloads {
			for _, m := range want {
				got, ok := res.Metrics[w.Name+"."+m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("-trace %s: %s.%s missing or unit %q, want %q", trace, w.Name, m.Name, got.Unit, m.Unit)
				}
			}
		}
		if n := len(spec.Workloads) * len(want); len(res.Metrics) != n {
			t.Errorf("-trace %s: %d metrics, want %d", trace, len(res.Metrics), n)
		}
	}
}

type specMetric struct{ Name, Unit string }

type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
	Paths     []string
}

func readSpec(t *testing.T) *spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return &s
}

// TestSpecMatchesTables pins BENCHMARK.json to the names the code
// prints, in the same order.
func TestSpecMatchesTables(t *testing.T) {
	s := readSpec(t)
	same := func(what string, got []specMetric, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", s.EndToEnd, endToEnd)
	same("per_layer", s.PerLayer, perLayer)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for _, w := range workloads {
		code = append(code, w.name)
	}
	if strings.Join(names, ",") != strings.Join(code, ",") {
		t.Errorf("workloads: BENCHMARK.json %v, code %v", names, code)
	}
	if len(s.Paths) != 1 || s.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", s.Paths)
	}
}
