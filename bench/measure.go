package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// emit prints the result as the final line of standard output.
func emit(w io.Writer, res *result) {
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "%s\n", b)
}

// metricSpec names one reported metric and its unit. The tables below
// are the single source of the names BENCHMARK.json declares.
type metricSpec struct{ name, unit string }

// endToEnd are printed by every untraced run, whatever the workload.
// Latency, CPU, allocation and write volume are per operation of the
// workload (one campaign, one report, one HTTP request), so a run that
// fits more operations into its window reports the same numbers.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"cpu_ms", "ms"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"write_mb", "MB"},
}

var serveRates = []int{2000, 4000, 8000, 16000}

// perLayer are printed by every traced run. A layer the workload does
// not exercise reads 0.
var perLayer = func() []metricSpec {
	m := []metricSpec{
		{"webworld.generate_s", "s"},
		{"webserver.requests", "count"},
		{"webserver.refused", "count"},
		{"webserver.busy_s", "s"},
		{"webserver.p50_us", "us"},
		{"webserver.p99_us", "us"},
	}
	for _, k := range hostKinds {
		m = append(m, metricSpec{"webserver.requests." + k, "count"})
	}
	for _, r := range serveRates {
		s := ".r" + strconv.Itoa(r)
		m = append(m,
			metricSpec{"serve.p50_ms" + s, "ms"},
			metricSpec{"serve.p99_ms" + s, "ms"},
			metricSpec{"serve.queue_wait_p99_ms" + s, "ms"},
			metricSpec{"serve.gen_late_ms" + s, "ms"})
	}
	m = append(m,
		metricSpec{"serve.max_rps", "1/s"},
		metricSpec{"crawler.run_s", "s"},
		metricSpec{"crawler.visits", "count"},
		metricSpec{"crawler.retries", "count"},
		metricSpec{"crawler.consumer_free_s", "s"},
		metricSpec{"crawler.attest_sweep_s", "s"},
		metricSpec{"crawler.attest_domains", "count"},
		metricSpec{"dataset.append_s", "s"},
		metricSpec{"dataset.appends", "count"},
		metricSpec{"dataset.checkpoint_s", "s"},
		metricSpec{"dataset.checkpoints", "count"},
		metricSpec{"dataset.close_s", "s"},
		metricSpec{"dataset.commit_share", "frac"},
		metricSpec{"dataset.load_s", "s"},
		metricSpec{"dataset.load_records", "count"},
	)
	for _, c := range artifactClasses {
		m = append(m, metricSpec{"durable.write_mb." + c, "MB"})
	}
	for _, c := range artifactClasses {
		m = append(m, metricSpec{"durable.sync_s." + c, "s"})
	}
	for _, c := range artifactClasses {
		m = append(m, metricSpec{"durable.syncs." + c, "count"})
	}
	m = append(m,
		metricSpec{"durable.write_s", "s"},
		metricSpec{"durable.rename_s", "s"},
		metricSpec{"durable.syncdir_s", "s"},
		metricSpec{"analysis.live_fold_s", "s"},
		metricSpec{"analysis.live_folds", "count"},
		metricSpec{"analysis.snapshot_s", "s"},
		metricSpec{"analysis.snapshots", "count"},
		metricSpec{"analysis.snapshot_last_mb", "MB"},
		metricSpec{"analysis.live_restore_s", "s"},
		metricSpec{"analysis.live_restore_mb_read", "MB"},
		metricSpec{"analysis.index_build_s", "s"},
		metricSpec{"analysis.sections_s", "s"},
		metricSpec{"analysis.render_s", "s"},
		metricSpec{"campaign.wall_s", "s"},
		metricSpec{"campaign.unassigned_s", "s"},
		metricSpec{"trace.overhead_frac", "frac"},
	)
	return m
}()

// hostKinds are the /__metrics request kinds of topics-serve.
var hostKinds = []string{"site", "sister", "platform", "cmp", "gtm", "longtail", "unknown"}

// artifactClasses are chaos.ClassifyArtifact's path classes.
var artifactClasses = []string{"journal", "manifest", "frame-index", "snapshot", "status", "report", "other"}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. It is 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// usage is a snapshot of this process's resource counters.
type usage struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64 // cumulative heap bytes allocated
	wchar int64  // cumulative bytes passed to write(2) and friends
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func sampleUsage() usage {
	var ru syscall.Rusage
	var cpu time.Duration
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	metrics.Read(allocSample)
	wchar, _ := procWchar("self")
	return usage{wall: time.Now(), cpu: cpu, alloc: allocSample[0].Value.Uint64(), wchar: wchar}
}

// opCost is what one operation cost between two usage snapshots.
type opCost struct {
	wallS, cpuS, allocMB, writeMB float64
}

func costBetween(a, b usage) opCost {
	return opCost{
		wallS:   b.wall.Sub(a.wall).Seconds(),
		cpuS:    (b.cpu - a.cpu).Seconds(),
		allocMB: float64(b.alloc-a.alloc) / 1e6,
		writeMB: float64(b.wchar-a.wchar) / 1e6,
	}
}

// procField reads "<key>: <value>" from /proc/<pid>/<file>.
func procField(pid, file, key string) (int64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/" + file)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%s/%s", key, pid, file)
}

// procWchar is the process's cumulative write(2) byte count.
func procWchar(pid string) (int64, error) { return procField(pid, "io", "wchar") }

// procPeakRSSMB is the process's peak resident set size (VmHWM).
func procPeakRSSMB(pid string) (float64, error) {
	kb, err := procField(pid, "status", "VmHWM")
	return float64(kb) / 1024, err
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux ABI Go supports.
const clockTicks = 100

// procCPU is another process's user plus system CPU time.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}
