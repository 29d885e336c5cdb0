package orchestrator

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"reflect"
	"strconv"

	"github.com/netmeasure/topicscope/internal/chaos"
	"github.com/netmeasure/topicscope/internal/webworld"
)

// Launcher starts one worker for a shard attempt. attempt is 0 for the
// first start and increments on every restart; resume tells the worker
// to continue from the shard journal's checkpoint instead of
// truncating.
type Launcher interface {
	Start(ctx context.Context, c *Campaign, spec ShardSpec, attempt int, resume bool) (Handle, error)
}

// Handle is a running worker. Wait blocks until it exits: nil means the
// shard completed; an error wrapping context.Canceled means the worker
// drained gracefully after a cancellation; anything else is a crash the
// coordinator may restart.
type Handle interface {
	Wait() error
}

// InProcLauncher runs shard workers as goroutines in this process —
// the default launcher, and the one the fault-handling tests use
// because it can arm deterministic crash plans per attempt. Workers
// record into the campaign's shared registry.
type InProcLauncher struct {
	// CrashPlan, when set, supplies the crash plan to arm for a given
	// (shard, attempt); nil means that attempt runs clean. The crash
	// matrix uses it to kill a worker at every checkpoint boundary and
	// prove the restart merges byte-identically.
	CrashPlan func(shard, attempt int) *chaos.CrashPlan
}

type inprocHandle struct {
	done chan struct{}
	err  error
}

func (h *inprocHandle) Wait() error {
	<-h.done
	return h.err
}

// Start launches the shard in a goroutine.
func (l *InProcLauncher) Start(ctx context.Context, c *Campaign, spec ShardSpec, attempt int, resume bool) (Handle, error) {
	sc := c.shardCampaign(spec, resume)
	if l.CrashPlan != nil {
		sc.CrashPlan = l.CrashPlan(spec.Index, attempt)
	}
	h := &inprocHandle{done: make(chan struct{})}
	//topicslint:ignore goroleak joined externally, the coordinator blocks on Handle.Wait which receives h.done
	go func() {
		defer close(h.done)
		_, h.err = sc.Run(ctx)
	}()
	return h, nil
}

// ExecLauncher spawns each shard worker as a separate topics-crawl
// process in -shard mode — the production launcher behind topics-orch.
// Worker liveness flows back through exit codes: 0 is done, 130 is the
// graceful-drain code topics-crawl already uses, anything else is a
// crash eligible for restart.
//
// The exec boundary carries only what topics-crawl flags can express:
// campaigns with world calibration overrides, a custom Start or a Vantage
// are rejected (run those with the InProcLauncher).
type ExecLauncher struct {
	// Bin is the topics-crawl binary.
	Bin string
	// ExtraArgs are appended to every worker's command line — e.g.
	// {"-pprof", "127.0.0.1:0"} to give each worker a live /__metrics
	// endpoint for topics-monitor -shards.
	ExtraArgs []string
	// Stderr receives the workers' combined stderr (nil discards).
	Stderr io.Writer
}

type execHandle struct {
	cmd *exec.Cmd
}

func (h *execHandle) Wait() error {
	err := h.cmd.Wait()
	if err == nil {
		return nil
	}
	var exit *exec.ExitError
	if errors.As(err, &exit) && exit.ExitCode() == 130 {
		// topics-crawl's drain exit: the worker checkpointed and stopped
		// on purpose.
		return fmt.Errorf("orchestrator: worker drained: %w", context.Canceled)
	}
	return fmt.Errorf("orchestrator: worker exited: %w", err)
}

// Start spawns `topics-crawl -shard i/N` with the campaign's flags.
func (l *ExecLauncher) Start(ctx context.Context, c *Campaign, spec ShardSpec, attempt int, resume bool) (Handle, error) {
	plain := webworld.Config{Seed: c.World.Seed, NumSites: c.World.NumSites}
	if !reflect.DeepEqual(c.World, plain) || !c.Start.IsZero() || c.Vantage != "" {
		return nil, fmt.Errorf("orchestrator: exec launcher cannot express World/Start/Vantage overrides")
	}
	args := []string{
		"-shard", fmt.Sprintf("%d/%d", spec.Index, spec.Count),
		"-seed", strconv.FormatUint(c.World.Seed, 10),
		"-sites", strconv.Itoa(c.World.NumSites),
		"-workers", strconv.Itoa(c.Workers),
		"-out", c.OutputPath,
		"-checkpoint-every", strconv.Itoa(c.CheckpointEvery),
		"-retries", strconv.Itoa(c.Retries()),
		"-chaos-seed", strconv.FormatUint(c.ChaosSeed, 10),
	}
	if c.Enforce {
		args = append(args, "-enforce")
	}
	if c.Chaos {
		args = append(args, "-chaos")
	}
	if c.Logger == nil {
		args = append(args, "-quiet")
	}
	if resume {
		args = append(args, "-resume")
	}
	args = append(args, l.ExtraArgs...)

	cmd := exec.CommandContext(ctx, l.Bin, args...)
	cmd.Stderr = l.Stderr
	cmd.Stdout = l.Stderr
	// Cancellation must trigger the worker's graceful drain (SIGINT →
	// checkpoint → exit 130), not a SIGKILL that would lose the tail.
	cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("orchestrator: starting worker for shard %s: %w", spec, err)
	}
	return &execHandle{cmd: cmd}, nil
}
