package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/netmeasure/topicscope/internal/webworld"
)

// workload is one set of inputs the benchmark runs; BENCHMARK.json
// and README.md give the reason for each. Every workload crawls with
// Workers: 2 and at most 2 connections, fixed here rather than read
// from the host.
type workload struct {
	name string
	run  func(r *runner) error
}

var workloads = []workload{
	{"campaign-journaled", func(r *runner) error { return runCampaign(r, r.size.journaledSites, true) }},
	{"campaign-inmem", func(r *runner) error { return runCampaign(r, r.size.inmemSites, false) }},
	{"report-live", func(r *runner) error { return runReport(r, true) }},
	{"report-posthoc", func(r *runner) error { return runReport(r, false) }},
	{"serve-open-loop", runServe},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sizes scale the workloads; toy is for the smoke test.
type sizes struct {
	journaledSites, inmemSites      int
	fixtureSites, fixtureCheckpoint int
	serveSites, recordRanks         int
	warmup, step                    time.Duration // step 0: fill the window
	rates                           []int
}

var fullSize = sizes{
	journaledSites: 3000, inmemSites: 8000,
	fixtureSites: 10000, fixtureCheckpoint: 500,
	serveSites: 8000, recordRanks: 1000,
	warmup: 1500 * time.Millisecond, rates: serveRates,
}

var toySize = sizes{
	journaledSites: 200, inmemSites: 200,
	fixtureSites: 200, fixtureCheckpoint: 50,
	serveSites: 200, recordRanks: 100,
	warmup: 200 * time.Millisecond, step: 500 * time.Millisecond, rates: []int{4000},
}

// runner carries one workload run: its configuration, its samples and
// its outcome.
type runner struct {
	cfg  config
	size sizes
	dir  string // this workload's artifacts

	attempted, failed int
	setup             []float64 // seconds per set-up repetition
	costs             []opCost  // per successful operation
	e2e               map[string]float64
	layerOps          []map[string]float64 // per traced operation
	spans             [][]span
	layers            map[string]float64 // layer values set directly
}

func runWorkload(w workload, cfg config) (*result, error) {
	r := &runner{cfg: cfg, size: fullSize, e2e: map[string]float64{}, layers: map[string]float64{}}
	if cfg.toy {
		r.size = toySize
	}
	r.dir = filepath.Join(cfg.out, w.name)
	if err := os.RemoveAll(r.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	fmt.Printf("workload %s seed=%d seconds=%g trace=%v\n", w.name, cfg.seed, cfg.seconds, cfg.trace)
	err := w.run(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		r.attempted++
		r.failed++
	}
	if len(r.spans) > 0 {
		if err := writeSpans(filepath.Join(r.dir, "spans.jsonl.gz"), r.spans); err != nil {
			return nil, err
		}
	}
	res := &result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	res.Correct = r.failed == 0 && r.attempted > 0
	if cfg.trace {
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{r.layerValue(m.name), m.unit}
		}
	} else {
		r.finishEndToEnd()
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{r.e2e[m.name], m.unit}
		}
	}
	printMetrics(res)
	return res, nil
}

// layerValue is a value set directly, else the median over the traced
// operations.
func (r *runner) layerValue(name string) float64 {
	if v, ok := r.layers[name]; ok {
		return v
	}
	var xs []float64
	for _, op := range r.layerOps {
		xs = append(xs, op[name])
	}
	return median(xs)
}

// finishEndToEnd fills the metrics a workload did not set itself from
// the per-operation samples (medians) and the process's peak RSS.
func (r *runner) finishEndToEnd() {
	pick := func(f func(opCost) float64) float64 {
		xs := make([]float64, len(r.costs))
		for i, c := range r.costs {
			xs[i] = f(c)
		}
		return median(xs)
	}
	set := func(name string, v float64) {
		if _, ok := r.e2e[name]; !ok {
			r.e2e[name] = v
		}
	}
	set("setup_s", median(r.setup))
	set("p50_ms", pick(func(c opCost) float64 { return c.wallS * 1e3 }))
	set("cpu_ms", pick(func(c opCost) float64 { return c.cpuS * 1e3 }))
	set("alloc_mb", pick(func(c opCost) float64 { return c.allocMB }))
	set("write_mb", pick(func(c opCost) float64 { return c.writeMB }))
	rss, err := procPeakRSSMB("self")
	if err != nil {
		r.fail("reading peak RSS: %v", err)
	}
	set("peak_rss_mb", rss)
	fmt.Printf("set-up s:")
	for _, s := range r.setup {
		fmt.Printf(" %.4f", s)
	}
	fmt.Println()
	if len(r.costs) > 0 {
		fmt.Printf("operation wall ms:")
		for _, c := range r.costs {
			fmt.Printf(" %.3f", c.wallS*1e3)
		}
		fmt.Println()
	}
}

func printMetrics(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-36s %14.6f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Printf("attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
}

// fail records one failed operation.
func (r *runner) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "bench: check failed: "+format+"\n", args...)
}

// setupReps is how often set-up is repeated; setup_s is the median.
const setupReps = 25

// setupWorld generates the workload's world setupReps times, timing
// each, and returns the last one. World generation is the webworld
// layer's whole job, so its traced metric is the same median.
func (r *runner) setupWorld(cfg webworld.Config) *webworld.World {
	var w *webworld.World
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := time.Now()
		w = webworld.Generate(cfg)
		r.setup = append(r.setup, time.Since(start).Seconds())
	}
	r.layers["webworld.generate_s"] = median(r.setup)
	return w
}

// repeat runs op until the measurement window has passed and at least
// minOps operations ran. Only timed runs inside the returned cost;
// check runs after it, untimed. A failed operation's cost is dropped.
// Each operation starts from a collected heap, as a fresh process
// would, so the previous one's garbage is not charged to it.
func (r *runner) repeat(minOps int, timed func(i int) error, check func(i int) error) {
	start := time.Now()
	window := time.Duration(r.cfg.seconds * float64(time.Second))
	for i := 0; i < minOps || time.Since(start) < window; i++ {
		runtime.GC()
		u0 := sampleUsage()
		err := timed(i)
		u1 := sampleUsage()
		if err == nil {
			err = check(i)
		}
		r.attempted++
		if err != nil {
			r.fail("operation %d: %v", i, err)
			continue
		}
		r.costs = append(r.costs, costBetween(u0, u1))
	}
}

// measureOps repeats op (see repeat), writing its artifacts to
// <dir>/untraced. In traced mode every second operation runs with a
// tracer into <dir>/traced: its spans give the per-layer values, its
// artifacts must equal the untraced operation's byte for byte, and
// trace.overhead_frac compares the two kinds' median wall times. check
// verifies each untraced operation.
func (r *runner) measureOps(op func(t *tracer, dir string) (map[string]float64, error), check func(i int, dir string) error) error {
	udir, tdir := filepath.Join(r.dir, "untraced"), filepath.Join(r.dir, "traced")
	for _, d := range []string{udir, tdir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	var walls [2][]float64 // untraced, traced
	traced := func(i int) bool { return r.cfg.trace && i%2 == 1 }
	timed := func(i int) error {
		start := time.Now()
		if !traced(i) {
			_, err := op(nil, udir)
			walls[0] = append(walls[0], time.Since(start).Seconds())
			return err
		}
		t := newTracer()
		counts, err := op(t, tdir)
		wall := time.Since(start).Seconds()
		walls[1] = append(walls[1], wall)
		r.spans = append(r.spans, t.spans)
		if err == nil {
			values := layerValues(t.spans, wall)
			for k, v := range counts {
				values[k] = v
			}
			r.layerOps = append(r.layerOps, values)
		}
		return err
	}
	minOps := 3
	if r.cfg.trace {
		minOps = 4
	}
	r.repeat(minOps, timed, func(i int) error {
		if traced(i) {
			return sameArtifacts(udir, tdir)
		}
		return check(i, udir)
	})
	if r.cfg.trace {
		r.layers["trace.overhead_frac"] = median(walls[1])/median(walls[0]) - 1
	}
	return nil
}

func fileSHA(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}
