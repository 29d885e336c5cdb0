package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: github.com/netmeasure/topicscope
BenchmarkPageLoad-8         	    1234	    912345 ns/op	  133299 B/op	    1551 allocs/op
BenchmarkTopicsEngineCall-8 	  500000	      2100 ns/op	    1084 B/op	      42 allocs/op
BenchmarkTable1-8           	17970202	        81.10 ns/op	       193.0 allowed	        43.00 daa_aa_callers	      64 B/op	       1 allocs/op
PASS
ok  	github.com/netmeasure/topicscope	3.210s
`

func parseSample(t *testing.T, text string) map[string]*entry {
	t.Helper()
	report, err := parse(bufio.NewScanner(strings.NewReader(text)))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return report
}

func TestParseStripsProcsAndCollectsMetrics(t *testing.T) {
	report := parseSample(t, sampleBench)
	if len(report) != 3 {
		t.Fatalf("parsed %d entries, want 3: %v", len(report), report)
	}
	page, ok := report["BenchmarkPageLoad"]
	if !ok {
		t.Fatal("GOMAXPROCS suffix not stripped from BenchmarkPageLoad-8")
	}
	if page.AllocsPerOp != 1551 || page.BytesPerOp != 133299 {
		t.Errorf("BenchmarkPageLoad parsed wrong: %+v", page)
	}
	t1, ok := report["BenchmarkTable1"]
	if !ok {
		t.Fatal("BenchmarkTable1 missing")
	}
	want := map[string]float64{"allowed": 193, "daa_aa_callers": 43}
	for unit, v := range want {
		if got := t1.Metrics[unit]; got != v {
			t.Errorf("metric %s = %v, want %v", unit, got, v)
		}
	}
	if t1.AllocsPerOp != 1 || t1.BytesPerOp != 64 {
		t.Errorf("BenchmarkTable1 parsed wrong: %+v", t1)
	}
}

// writeBaseline marshals a report to a temp baseline file for gate().
func writeBaseline(t *testing.T, report map[string]*entry) string {
	t.Helper()
	raw, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func gateOutput(t *testing.T, report map[string]*entry, baseline string, tol float64) (string, error) {
	t.Helper()
	var sb strings.Builder
	err := gate(report, baseline, tol, &sb)
	return sb.String(), err
}

// TestGateNewBenchmarkIsAdvisory pins the satellite behavior: a
// benchmark absent from the committed baseline must not fail the gate.
func TestGateNewBenchmarkIsAdvisory(t *testing.T) {
	baseline := parseSample(t, sampleBench)
	delete(baseline, "BenchmarkTable1")
	path := writeBaseline(t, baseline)

	out, err := gateOutput(t, parseSample(t, sampleBench), path, 0.2)
	if err != nil {
		t.Fatalf("new benchmark failed the gate: %v\n%s", err, out)
	}
	if !strings.Contains(out, "new benchmark (not in baseline, advisory): BenchmarkTable1") {
		t.Errorf("missing advisory line:\n%s", out)
	}
	if !strings.Contains(out, "bench gate: ok") {
		t.Errorf("gate did not report ok:\n%s", out)
	}
}

func TestGateAllocsRegressionFails(t *testing.T) {
	path := writeBaseline(t, parseSample(t, sampleBench))
	run := parseSample(t, sampleBench)
	run["BenchmarkPageLoad"].AllocsPerOp = 3000 // ~2x the baseline's 1551

	out, err := gateOutput(t, run, path, 0.2)
	if err == nil {
		t.Fatalf("allocs/op regression passed the gate:\n%s", out)
	}
	if !strings.Contains(out, "REGRESSION BenchmarkPageLoad allocs/op") {
		t.Errorf("missing regression line:\n%s", out)
	}
}

// TestGateWithinToleranceOK: allocs/op drift inside the tolerance
// passes, and custom metrics never gate, whatever they read.
func TestGateWithinToleranceOK(t *testing.T) {
	path := writeBaseline(t, parseSample(t, sampleBench))
	run := parseSample(t, sampleBench)
	run["BenchmarkTopicsEngineCall"].AllocsPerOp = 46 // +9.5%
	run["BenchmarkTable1"].Metrics["allowed"] = 1     // baseline 193
	delete(run["BenchmarkTable1"].Metrics, "daa_aa_callers")

	out, err := gateOutput(t, run, path, 0.2)
	if err != nil {
		t.Fatalf("within-tolerance drift failed the gate: %v\n%s", err, out)
	}
}
