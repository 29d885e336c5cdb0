package orchestrator

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"time"

	"github.com/netmeasure/topicscope/internal/analysis"
	"github.com/netmeasure/topicscope/internal/campaign"
	"github.com/netmeasure/topicscope/internal/chaos"
	"github.com/netmeasure/topicscope/internal/crawler"
	"github.com/netmeasure/topicscope/internal/dataset"
	"github.com/netmeasure/topicscope/internal/durable"
	"github.com/netmeasure/topicscope/internal/obs"
)

// ShardCampaign runs one shard of a distributed campaign in-process:
// generate only the shard's window of the world (GenerateRange), crawl
// ranks [FromRank,ToRank] against an in-process server, and journal the
// visits to ShardPath(OutputPath, Shard.Index) with shard-stamped
// checkpoints. It is the engine behind topics-crawl -shard and the
// coordinator's in-process launcher.
//
// Byte parity with the single-process campaign needs nothing special
// here: visit timestamps derive from the global rank, chaos decisions
// are pure per-request functions, and the crawler's rank-ordered
// consumer makes the journal's record order a pure function of the rank
// window.
type ShardCampaign struct {
	// Spec is the campaign's identity and must be identical across
	// every shard of one campaign. Workers is the crawl parallelism.
	campaign.Spec
	Workers int
	// VisitBudget is the optional per-visit stage-clock watchdog
	// (topics-crawl -visit-budget-ms).
	VisitBudget time.Duration

	// OutputPath is the campaign's dataset path; the shard journal goes
	// to ShardPath(OutputPath, Shard.Index).
	OutputPath string
	// CheckpointEvery is the shard journal's checkpoint cadence.
	CheckpointEvery int
	// Shard is this worker's rank window.
	Shard ShardSpec
	// Resume continues from the shard journal's last checkpoint instead
	// of truncating it.
	Resume bool

	// Logger receives progress (nil = silent). Metrics, when set, is the
	// registry the shard records into (serve it with obs.DebugMux to
	// expose /__metrics).
	Logger  *slog.Logger
	Metrics *obs.Registry
	// MetricsURL is recorded in the shard's status file so the
	// coordinator and topics-monitor -shards can find the live registry.
	MetricsURL string
	// CrashPlan, when set, arms the deterministic crashpoint injector on
	// the journal's write path — the fault-handling tests kill workers
	// with it. A crash aborts the journal exactly as kill -9 would.
	CrashPlan *chaos.CrashPlan
	// FS, when set, routes every artifact write (journal, manifest,
	// frame index, live snapshot, status) through an explicit filesystem
	// seam — the storage fault injector (chaos.FaultFS) plugs in here.
	// Nil means the real OS.
	FS durable.FS
	// Retry is the write-path retry policy for authoritative artifacts
	// (journal fsync, manifest); the zero value means no retries.
	Retry durable.RetryPolicy
}

// ShardResult reports a finished (or drained) shard.
type ShardResult struct {
	// Path is the shard journal's path.
	Path string
	// Stats aggregates the shard's crawl.
	Stats crawler.Stats
	// Resumed reports recovery detail when the shard was resumed.
	Resumed *dataset.ResumeState
}

// Run executes the shard. On an injected crash it returns the
// chaos.ErrInjectedCrash chain after abandoning the journal (kill -9
// semantics: no final checkpoint); on context cancellation it drains,
// checkpoints and returns ctx.Err().
func (c ShardCampaign) Run(ctx context.Context) (*ShardResult, error) {
	if c.Shard.Count < 1 || c.Shard.Index < 0 || c.Shard.Index >= c.Shard.Count ||
		c.Shard.FromRank < 1 || c.Shard.ToRank < c.Shard.FromRank {
		return nil, fmt.Errorf("orchestrator: invalid shard %s", c.Shard)
	}
	env := c.NewEnv(c.Shard.FromRank, c.Shard.ToRank)
	reg := c.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}

	list := env.World.List()
	rankSite := make(map[int]string, len(list.Entries))
	for _, e := range list.Entries {
		rankSite[e.Rank] = e.Domain
	}

	// The shard journal's watermark must sweep the ranks below the
	// window (they belong to sibling shards) and stop at ToRank: skip
	// reports pre-window ranks and resumed sites, and nothing above the
	// window, so a complete shard's manifest reads WatermarkRank ==
	// ToRank — the completeness check MergeJournals enforces.
	skipSites := map[string]bool{}
	jopts := dataset.JournalOptions{
		CheckpointEvery: c.CheckpointEvery,
		Metrics:         reg,
		Shard:           c.Shard.Info(),
		Skip: func(rank int) bool {
			if rank < c.Shard.FromRank {
				return true
			}
			if rank > c.Shard.ToRank {
				return false
			}
			return skipSites[rankSite[rank]]
		},
	}
	jopts.Durable = durable.Options{FS: c.FS, Retry: c.Retry}
	if c.CrashPlan != nil {
		jopts.Durable.BeforeAppend = c.CrashPlan.BeforeAppend()
		jopts.Durable.Wrap = c.CrashPlan.Wrap()
	}

	path := ShardPath(c.OutputPath, c.Shard.Index)
	res := &ShardResult{Path: path}
	// Each shard maintains its own live analysis index beside its
	// journal; the coordinator restores and merges the per-shard
	// snapshots instead of re-folding every shard's records.
	liveIn := &analysis.Input{Allowlist: env.Allow, Metrics: reg, FS: c.FS}
	var journal *dataset.JournalWriter
	var err error
	if c.Resume {
		sink, lst, serr := analysis.OpenLiveSink(path, liveIn)
		if serr != nil {
			return nil, serr
		}
		if c.Logger != nil && lst.SnapshotRestored {
			c.Logger.Info("shard index snapshot restored", "shard", c.Shard.String(),
				"records", lst.SnapshotRecords)
		}
		jopts.Observer = sink
		var st *dataset.ResumeState
		journal, st, err = dataset.ResumeJournal(path, jopts)
		if err != nil {
			return nil, err
		}
		res.Resumed = st
		for site := range st.Completed {
			skipSites[site] = true
		}
		for _, e := range list.Entries {
			if e.Rank <= st.WatermarkRank {
				skipSites[e.Domain] = true
			}
		}
		if c.Logger != nil {
			c.Logger.Info("shard resume", "shard", c.Shard.String(),
				"kept", st.RecordsKept, "skipping", len(skipSites), "tailBytes", st.BytesRead)
		}
	} else {
		jopts.Observer = analysis.NewLiveSink(path, liveIn)
		journal, err = dataset.CreateJournal(path, jopts)
		if err != nil {
			return nil, err
		}
	}
	defer journal.Abort() // no-op after Close

	crawlSkip := make(map[string]bool, len(skipSites))
	for site := range skipSites {
		crawlSkip[site] = true
	}
	ccfg := env.Config()
	ccfg.Workers = c.Workers
	ccfg.VisitBudget = c.VisitBudget
	ccfg.Writer = journal
	ccfg.SkipSites = crawlSkip
	ccfg.Logger = c.Logger
	ccfg.Metrics = reg
	cr := crawler.New(ccfg)

	c.writeStatus(path, StateRunning, nil)
	crawlRes, err := cr.Run(ctx, list)
	if err != nil {
		if chaos.IsCrash(err) {
			// The injected crash is a simulated kill -9: leave the
			// journal exactly as the dying process would — buffered
			// records lost, no final checkpoint.
			c.writeStatus(path, StateFailed, err)
			return nil, fmt.Errorf("orchestrator: shard %s crashed: %w", c.Shard, err)
		}
		if errors.Is(err, context.Canceled) {
			// Graceful drain: the crawler already flushed a final
			// checkpoint; make the manifest durable before reporting.
			if cerr := journal.Close(); cerr != nil && ctx.Err() == nil {
				return nil, fmt.Errorf("orchestrator: closing shard journal: %w", cerr)
			}
			res.Stats = crawlRes.Stats
			c.writeStatus(path, StateDrained, nil)
			return res, err
		}
		if durable.IsDiskFull(err) {
			// Persistent ENOSPC is never retried: fail fast, keep the last
			// committed checkpoint intact, and let the operator free space
			// and resume.
			reg.Add("storage_disk_full_total", 1)
			c.writeStatus(path, StateFailed, err)
			return nil, fmt.Errorf("orchestrator: shard %s out of disk space (resume after freeing space): %w", c.Shard, err)
		}
		c.writeStatus(path, StateFailed, err)
		return nil, fmt.Errorf("orchestrator: shard %s: %w", c.Shard, err)
	}
	if err := journal.Close(); err != nil {
		c.writeStatus(path, StateFailed, err)
		return nil, fmt.Errorf("orchestrator: closing shard journal: %w", err)
	}
	res.Stats = crawlRes.Stats
	c.writeStatus(path, StateDone, nil)
	return res, nil
}

// writeStatus best-effort updates the shard's status file; liveness
// reporting must never fail a crawl.
func (c ShardCampaign) writeStatus(path, state string, cause error) {
	st := &Status{Shard: c.Shard, PID: os.Getpid(), MetricsURL: c.MetricsURL, State: state}
	if cause != nil {
		st.Error = cause.Error()
	}
	if err := WriteStatus(path, st); err != nil && c.Logger != nil {
		c.Logger.Warn("status write failed", "path", StatusPath(path), "err", err)
	}
}
