// Command bench is topicscope's end-to-end benchmark. Each workload
// runs in a child process (GOMAXPROCS=2) through the entry points users
// call, checks its outputs, and prints every end-to-end metric; with
// -trace 1 it instead runs the same pipeline assembled from the layer
// packages behind timing wrappers and prints the per-layer metrics.
//
//	bash bench/run.sh --workload campaign-inmem --seed 3 --seconds 18 --trace 0
//	go -C bench run . -root .. -seed 1            # every workload in turn
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}.
// See README.md for the workloads, the metrics and how to compare runs.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// childTimeout bounds one workload process; a run must end within 180 s.
const childTimeout = 170 * time.Second

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	toy      bool
	root     string // repository root: topics-serve is built from here
	out      string // artifacts, spans and traced summaries
}

func main() {
	var (
		cfg   config
		trace int
		child bool
	)
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run, or all")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed for the workload's inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 18, "measurement window of one run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pipeline and prints the per-layer metrics")
	flag.BoolVar(&cfg.toy, "toy", false, "toy scale (about 200 sites) for smoke tests")
	flag.StringVar(&cfg.root, "root", ".", "repository root")
	flag.StringVar(&cfg.out, "out", ".bench_build/out", "output directory")
	flag.BoolVar(&child, "child", false, "run the workload in this process (set by the parent)")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", trace))
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	var err error
	if cfg.root, err = filepath.Abs(cfg.root); err != nil {
		fatal(err)
	}
	if cfg.out, err = filepath.Abs(cfg.out); err != nil {
		fatal(err)
	}
	if _, err := os.Stat(filepath.Join(cfg.root, "go.mod")); err != nil {
		fatal(fmt.Errorf("-root %s is not the topicscope repository: %w", cfg.root, err))
	}

	if child {
		w, ok := workloadByName(cfg.workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", cfg.workload))
		}
		res, err := runWorkload(w, cfg)
		if err != nil {
			fatal(err)
		}
		emit(os.Stdout, res)
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, ok := workloadByName(cfg.workload); !ok {
		fatal(fmt.Errorf("unknown workload %q", cfg.workload))
	}
	total := &result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		res, err := runChild(cfg, name)
		if err != nil {
			fatal(fmt.Errorf("workload %s: %w", name, err))
		}
		if len(names) == 1 {
			total = res
			break
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			total.Metrics[name+"."+k] = m
		}
	}
	emit(os.Stdout, total)
	if !total.Correct {
		os.Exit(1)
	}
}

// runChild re-executes the bench for one workload with GOMAXPROCS=2,
// so every workload gets a fresh heap, its own peak RSS and the same
// parallelism on any host. The child's output passes through; its last
// line is its result.
func runChild(cfg config, name string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	args := []string{
		"-child", "-workload", name,
		"-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'f', -1, 64),
		"-trace", trace,
		"-root", cfg.root, "-out", cfg.out,
	}
	if cfg.toy {
		args = append(args, "-toy")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	runErr := cmd.Run()
	out := strings.TrimRight(stdout.String(), "\n")
	last := out[strings.LastIndexByte(out, '\n')+1:]
	// The parent prints the result line itself, after all workloads.
	fmt.Print(strings.TrimSuffix(out, last))
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil || res.Metrics == nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, errors.New("no result line")
	}
	return &res, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
