package orchestrator

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"

	"github.com/netmeasure/topicscope/internal/analysis"
	"github.com/netmeasure/topicscope/internal/campaign"
	"github.com/netmeasure/topicscope/internal/crawler"
	"github.com/netmeasure/topicscope/internal/dataset"
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

// Result bundles a distributed campaign's outputs. Data, Attestations,
// Report and Analysis carry exactly what topicscope.Results would for
// the same campaign run in one process.
type Result struct {
	// Shards is the rank partition the campaign ran with.
	Shards []ShardSpec
	// Merge reports the journal merge.
	Merge MergeStats
	// Restarts counts worker restarts across all shards.
	Restarts int
	// Data holds every visit record, in global rank order.
	Data *dataset.Dataset
	// Attestations are the campaign-wide well-known checks.
	Attestations []dataset.AttestationRecord
	// Report holds every computed experiment.
	Report *analysis.Report
	// Analysis is the input the report was computed from, carrying the
	// merged cross-shard index.
	Analysis *analysis.Input
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
	// campaign dataset, collecting each shard's visits on the way for
	// the cross-shard analysis merge.
	shardPaths := make([]string, len(specs))
	for i := range specs {
		shardPaths[i] = ShardPath(c.OutputPath, i)
	}
	parts := make([][]dataset.Visit, len(specs))
	mergeStats, err := MergeJournals(c.OutputPath, shardPaths, c.Metrics, func(shard int, payload []byte) error {
		var v dataset.Visit
		if err := dataset.DecodeVisit(payload, &v); err != nil {
			return fmt.Errorf("orchestrator: decoding visit from shard %d: %w", shard, err)
		}
		parts[shard] = append(parts[shard], v)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if c.Logger != nil {
		c.Logger.Info("shards merged", "records", mergeStats.Records, "sites", mergeStats.Sites)
	}
	data := &dataset.Dataset{}
	for _, p := range parts {
		data.Visits = append(data.Visits, p...)
	}

	// Analysis phase, replicating the single-process campaign: the full
	// world (the attestation sweep reaches sister and site domains no
	// single shard generates), the same chaos weather on its client, the
	// campaign-wide attestation checks, and a report computed from the
	// commutative merge of per-shard index partials.
	env := c.NewEnv(1, campaign.AllRanks)
	recs := env.Sweep(ctx, nil, crawler.CallerDomains(data))

	in := &analysis.Input{
		Data:         data,
		Allowlist:    env.Allow,
		Attestations: dataset.AttestationIndex(recs),
		Metrics:      c.Metrics,
	}
	partials := make([]*analysis.LiveIndex, len(parts))
	var iwg sync.WaitGroup
	for i := range parts {
		iwg.Add(1)
		go func(i int) {
			defer iwg.Done()
			// Each worker serialized its live index beside its journal at
			// every checkpoint; a snapshot matching the shard's final
			// manifest, our allow-list, and the merged record count is
			// adopted as the merge partial without re-folding the shard.
			// Anything less degrades to the from-scratch build.
			shardIn := &analysis.Input{Allowlist: env.Allow, Metrics: c.Metrics}
			if live, _ := analysis.LoadIndexSnapshot(shardPaths[i], shardIn); live != nil && live.Visits() == len(parts[i]) {
				partials[i] = live
				c.Metrics.Add("orchestrator_shard_index_restored_total", 1)
				return
			}
			c.Metrics.Add("orchestrator_shard_index_rebuilt_total", 1)
			partials[i] = analysis.BuildShardIndex(&analysis.Input{
				Data:         &dataset.Dataset{Visits: parts[i]},
				Allowlist:    env.Allow,
				Attestations: in.Attestations,
				Metrics:      c.Metrics,
			})
		}(i)
	}
	iwg.Wait()
	idx, err := analysis.MergeShardIndexes(in, partials...)
	if err != nil {
		return nil, err
	}
	in.AdoptIndex(idx)
	report := analysis.Run(in)

	return &Result{
		Shards:       specs,
		Merge:        *mergeStats,
		Restarts:     restarts,
		Data:         data,
		Attestations: recs,
		Report:       report,
		Analysis:     in,
		Metrics:      c.Metrics,
	}, nil
}
