package orchestrator

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"

	"github.com/netmeasure/topicscope/internal/analysis"
	"github.com/netmeasure/topicscope/internal/campaign"
	"github.com/netmeasure/topicscope/internal/durable"
	"github.com/netmeasure/topicscope/internal/fsck"
	"github.com/netmeasure/topicscope/internal/obs"
)

// DefaultMaxRestarts is the per-shard restart budget when
// Campaign.MaxRestarts is zero.
const DefaultMaxRestarts = 2

// Campaign is a distributed measurement campaign: the same knobs as
// topicscope.Campaign, plus the shard geometry and worker supervision
// policy. Run partitions the site ranks, launches one worker per shard,
// restarts crashed workers from their shard checkpoints, merges the
// shard journals byte-identically, and computes the same report a
// single-process campaign would — which the merge-parity golden test
// pins down to the byte.
type Campaign struct {
	// Spec is the campaign's identity, shared by every shard; Workers
	// is the per-worker crawl parallelism.
	campaign.Spec
	Workers int

	// OutputPath is the merged dataset path; shard i journals to
	// ShardPath(OutputPath, i). Required.
	OutputPath string
	// CheckpointEvery is each shard journal's checkpoint cadence.
	CheckpointEvery int

	// Shards is how many contiguous rank windows to partition into
	// (required, >= 1; clamped to Sites).
	Shards int
	// Resume continues an interrupted distributed campaign: every worker
	// starts from its shard checkpoint.
	Resume bool
	// MaxRestarts bounds restarts per shard after a crash: 0 selects
	// DefaultMaxRestarts, negative disables restarts.
	MaxRestarts int
	// Launcher starts the workers; nil selects the in-process launcher.
	Launcher Launcher
	// Fsck verifies every shard journal after the crawl phase: a shard
	// with corrupt or torn artifacts is truncated back to its last clean
	// committed checkpoint and restarted from there — fsck-detected
	// corruption becomes the same restartable condition a worker crash
	// is, charged against the same restart budget.
	Fsck bool
	// FS routes in-process workers' artifact writes through an explicit
	// filesystem seam (chaos.FaultFS plugs in here); nil means the real
	// OS. Retry is their authoritative-write retry policy.
	FS    durable.FS
	Retry durable.RetryPolicy

	// Logger receives coordinator and (in-process) worker progress.
	Logger *slog.Logger
	// Metrics is the coordinator's registry (nil = fresh); in-process
	// workers record into it directly, exec-launched workers publish
	// their own via -pprof and the status files.
	Metrics *obs.Registry
}

// Result bundles a distributed campaign's outputs. Its attestations,
// report and analysis input are exactly what topicscope.Results would
// carry for the same campaign run in one process; the visits stay in the
// merged journal.
type Result struct {
	*campaign.Analysis
	// Shards is the rank partition the campaign ran with.
	Shards []ShardSpec
	// Merge reports the journal merge.
	Merge MergeStats
	// Restarts counts worker restarts across all shards.
	Restarts int
	// Metrics is the coordinator's registry.
	Metrics *obs.Registry
}

// shardCampaign projects the campaign onto one shard for a worker.
func (c *Campaign) shardCampaign(spec ShardSpec, resume bool) ShardCampaign {
	logger := c.Logger
	if logger != nil {
		logger = logger.With("shard", spec.Index)
	}
	return ShardCampaign{
		Spec:            c.Spec,
		Workers:         c.Workers,
		OutputPath:      c.OutputPath,
		CheckpointEvery: c.CheckpointEvery,
		Shard:           spec,
		Resume:          resume,
		Logger:          logger,
		Metrics:         c.Metrics,
		FS:              c.FS,
		Retry:           c.Retry,
	}
}

// supervise runs one shard to completion, restarting crashed workers
// from the shard checkpoint up to the restart budget. It returns how
// many restarts it spent.
func (c *Campaign) supervise(ctx context.Context, launcher Launcher, spec ShardSpec, budget int, forceResume bool) (int, error) {
	attempt := 0
	for {
		resume := forceResume || c.Resume || attempt > 0
		h, err := launcher.Start(ctx, c, spec, attempt, resume)
		if err != nil {
			return attempt, err
		}
		err = h.Wait()
		if err == nil {
			return attempt, nil
		}
		if errors.Is(err, context.Canceled) || ctx.Err() != nil {
			// Graceful drain (ours or a sibling's failure cancelling the
			// campaign): the shard checkpointed; nothing to restart.
			return attempt, err
		}
		if attempt >= budget {
			return attempt, fmt.Errorf("orchestrator: shard %s: restart budget (%d) exhausted: %w", spec, budget, err)
		}
		attempt++
		c.Metrics.Add("orchestrator_worker_restarts_total", 1)
		if c.Logger != nil {
			c.Logger.Warn("worker crashed, restarting from checkpoint",
				"shard", spec.Index, "attempt", attempt, "err", err)
		}
	}
}

// fsckShards verifies every shard journal and heals flagged shards by
// quarantine-truncation plus a resumed recrawl, looping until every
// shard verifies clean. Each heal is charged like a crash restart, with
// a per-shard budget.
func (c *Campaign) fsckShards(ctx context.Context, launcher Launcher, specs []ShardSpec, budget int) (int, error) {
	total := 0
	attempts := make([]int, len(specs))
	for {
		dirty := 0
		for _, spec := range specs {
			path := ShardPath(c.OutputPath, spec.Index)
			chk, err := fsck.VerifyJournal(path, fsck.VerifyOptions{
				FromRank: spec.FromRank,
				ToRank:   spec.ToRank,
				Shard:    spec.Info(),
				Metrics:  c.Metrics,
			})
			if err != nil {
				return total, err
			}
			if chk.Report.Clean {
				continue
			}
			dirty++
			if attempts[spec.Index] >= budget {
				return total, fmt.Errorf("orchestrator: shard %s: fsck heal budget (%d) exhausted: %d findings remain",
					spec, budget, len(chk.Report.Findings))
			}
			attempts[spec.Index]++
			total++
			c.Metrics.Add("orchestrator_fsck_restarts_total", 1)
			if c.Logger != nil {
				c.Logger.Warn("fsck flagged shard; truncating to last clean checkpoint and restarting",
					"shard", spec.Index, "findings", len(chk.Report.Findings), "windows", len(chk.Report.Repair))
			}
			if err := fsck.QuarantineTruncate(chk); err != nil {
				return total, err
			}
			n, err := c.supervise(ctx, launcher, spec, budget, true)
			total += n
			if err != nil {
				return total, err
			}
		}
		if dirty == 0 {
			return total, nil
		}
	}
}

// Run executes the distributed campaign end to end.
func (c Campaign) Run(ctx context.Context) (*Result, error) {
	if c.OutputPath == "" {
		return nil, fmt.Errorf("orchestrator: campaign needs an OutputPath (shards journal beside it)")
	}
	if c.Shards < 1 {
		return nil, fmt.Errorf("orchestrator: campaign needs Shards >= 1, got %d", c.Shards)
	}
	sites := c.World.NumSites
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	launcher := c.Launcher
	if launcher == nil {
		launcher = &InProcLauncher{}
	}
	budget := c.MaxRestarts
	switch {
	case budget == 0:
		budget = DefaultMaxRestarts
	case budget < 0:
		budget = 0
	}

	specs, err := Partition(sites, c.Shards)
	if err != nil {
		return nil, err
	}
	if c.Logger != nil {
		c.Logger.Info("campaign partitioned", "sites", sites, "shards", len(specs))
	}

	// Crawl phase: every shard supervised concurrently. A shard that
	// exhausts its restart budget cancels the campaign so its siblings
	// drain to durable checkpoints instead of crawling on for a merge
	// that can no longer happen.
	crawlCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		restarts int
		firstErr error
	)
	for _, spec := range specs {
		wg.Add(1)
		go func(spec ShardSpec) {
			defer wg.Done()
			n, err := c.supervise(crawlCtx, launcher, spec, budget, false)
			mu.Lock()
			defer mu.Unlock()
			restarts += n
			if err != nil {
				// Prefer the root-cause error over the context.Canceled
				// noise of siblings draining after it.
				if firstErr == nil || (errors.Is(firstErr, context.Canceled) && !errors.Is(err, context.Canceled)) {
					firstErr = err
				}
				cancel()
			}
		}(spec)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	// Verify phase (optional): fsck every shard journal; a flagged shard
	// is truncated to its last clean committed checkpoint and restarted
	// from there, exactly like a crashed worker.
	if c.Fsck {
		n, err := c.fsckShards(ctx, launcher, specs, budget)
		restarts += n
		if err != nil {
			return nil, err
		}
	}

	// Merge phase: validate and concatenate the shard journals into the
	// campaign dataset.
	shardPaths := make([]string, len(specs))
	for i := range specs {
		shardPaths[i] = ShardPath(c.OutputPath, i)
	}
	mergeStats, err := MergeJournals(c.OutputPath, shardPaths, c.Metrics)
	if err != nil {
		return nil, err
	}
	if c.Logger != nil {
		c.Logger.Info("shards merged", "records", mergeStats.Records, "sites", mergeStats.Sites)
	}

	// Analysis phase, replicating the single-process campaign over the
	// merge of the shards' folds: each shard's .idx restored, or its
	// journal folded where the snapshot does not match. The full world
	// runs the sweep (it reaches sister and site domains no single shard
	// generates), with the same chaos weather on its client.
	env := c.NewEnv(1, campaign.AllRanks)
	shardIn := &analysis.Input{Allowlist: env.Allow, Metrics: c.Metrics}
	live := analysis.NewLiveIndex(shardIn)
	for i, path := range shardPaths {
		part, st, err := analysis.LoadLiveIndex(path, shardIn)
		if err != nil {
			return nil, err
		}
		if got, want := int64(part.Visits()), mergeStats.ShardRecords[i]; got != want {
			return nil, fmt.Errorf("orchestrator: shard %d (%s): index holds %d records, the merge took %d", i, path, got, want)
		}
		metric := "orchestrator_shard_index_rebuilt_total"
		if st.SnapshotRestored {
			metric = "orchestrator_shard_index_restored_total"
		}
		c.Metrics.Add(metric, 1)
		live.Absorb(part)
	}
	an, err := env.Analyze(ctx, nil, live, nil, c.Metrics)
	if err != nil {
		return nil, fmt.Errorf("orchestrator: %w", err)
	}

	return &Result{Analysis: an, Shards: specs, Merge: *mergeStats, Restarts: restarts, Metrics: c.Metrics}, nil
}
