// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON report on stdout, so benchmark baselines can be
// committed and diffed (see `make bench-json` and BENCH_report.json).
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson > BENCH_report.json
//
// Each benchmark becomes one entry keyed by its name with the
// GOMAXPROCS suffix stripped (BenchmarkTable1-8 → BenchmarkTable1), so
// reports from machines with different core counts stay comparable.
// Standard measurements (ns/op, B/op, allocs/op, MB/s) get dedicated
// fields; every custom b.ReportMetric unit lands under "metrics".
//
// With -check it becomes the regression gate (`make bench-gate`):
// instead of printing a report it compares the parsed run against a
// committed baseline and exits non-zero when a machine-independent
// metric regressed by more than -tol: allocs/op and B/op. Wall-clock
// ns/op varies with the host, so it is reported but never gates; custom
// metrics are recorded in the report but never gate either. Benchmarks
// missing from the baseline are advisory ("new").
//
//	go test -run '^$' -bench . -benchmem . | benchjson -check BENCH_report.json -tol 0.2
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// entry is one benchmark's parsed result.
type entry struct {
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_op"`
	BytesPerOp  float64            `json:"b_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_op,omitempty"`
	MBPerSec    float64            `json:"mb_s,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	check := flag.String("check", "", "baseline JSON to gate against instead of printing a report")
	tol := flag.Float64("tol", 0.2, "with -check: allowed fractional regression on allocs/op and B/op")
	flag.Parse()

	report, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(report) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	if *check != "" {
		if err := gate(report, *check, *tol, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	out, err := marshalSorted(report)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	os.Stdout.Write(out)
}

// gate compares the current run to the committed baseline. allocs/op
// and B/op are stable across machines, so they gate hard; ns/op drift
// is printed for context only. Benchmarks present only on
// one side are reported as advisory — a benchmark missing from the
// committed baseline is "new" and never fails the gate, so fresh
// benchmarks land cleanly and the baseline is regenerated afterwards
// (`make bench-json`).
func gate(report map[string]*entry, baselinePath string, tol float64, w io.Writer) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	baseline := map[string]*entry{}
	if err := json.Unmarshal(raw, &baseline); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", baselinePath, err)
	}

	names := make([]string, 0, len(report))
	for name := range report {
		names = append(names, name)
	}
	sort.Strings(names)

	failures := 0
	for _, name := range names {
		got := report[name]
		base, ok := baseline[name]
		if !ok {
			fmt.Fprintf(w, "new benchmark (not in baseline, advisory): %s\n", name)
			continue
		}
		for _, m := range []struct {
			metric    string
			got, base float64
		}{
			{"allocs/op", got.AllocsPerOp, base.AllocsPerOp},
			{"B/op", got.BytesPerOp, base.BytesPerOp},
		} {
			if m.base <= 0 || m.got <= m.base*(1+tol) {
				continue
			}
			failures++
			fmt.Fprintf(w, "REGRESSION %s %s: %.0f -> %.0f (+%.1f%%, tolerance %.0f%%)\n",
				name, m.metric, m.base, m.got, (m.got/m.base-1)*100, tol*100)
		}
		if base.NsPerOp > 0 {
			fmt.Fprintf(w, "%s ns/op: %.0f -> %.0f (%+.1f%%, advisory)\n",
				name, base.NsPerOp, got.NsPerOp, (got.NsPerOp/base.NsPerOp-1)*100)
		}
	}
	for name := range baseline {
		if _, ok := report[name]; !ok {
			fmt.Fprintf(w, "baseline benchmark missing from run: %s\n", name)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond %.0f%% (regenerate the baseline with `make bench-json` if intentional)", failures, tol*100)
	}
	fmt.Fprintln(w, "bench gate: ok")
	return nil
}

// parse consumes benchmark output lines; non-benchmark lines (package
// headers, PASS, ok) are ignored.
func parse(sc *bufio.Scanner) (map[string]*entry, error) {
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	report := map[string]*entry{}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // "Benchmark..." banner without results
		}
		e := &entry{Iterations: iters}
		// Remaining fields alternate value/unit.
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in %q", fields[i], line)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				e.NsPerOp = val
			case "B/op":
				e.BytesPerOp = val
			case "allocs/op":
				e.AllocsPerOp = val
			case "MB/s":
				e.MBPerSec = val
			default:
				if e.Metrics == nil {
					e.Metrics = map[string]float64{}
				}
				e.Metrics[unit] = val
			}
		}
		report[stripProcs(fields[0])] = e
	}
	return report, sc.Err()
}

// stripProcs removes the trailing -GOMAXPROCS suffix from a benchmark
// name, leaving sub-benchmark paths intact:
// BenchmarkCrawlChaos/retries=off-8 → BenchmarkCrawlChaos/retries=off.
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// marshalSorted renders the report with stable key order (encoding/json
// sorts map keys, but an explicit ordered body keeps diffs minimal and
// readable).
func marshalSorted(report map[string]*entry) ([]byte, error) {
	names := make([]string, 0, len(report))
	for name := range report {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("{\n")
	for i, name := range names {
		body, err := json.Marshal(report[name])
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "  %q: %s", name, body)
		if i < len(names)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString("}\n")
	return []byte(b.String()), nil
}
