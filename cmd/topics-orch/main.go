// Command topics-orch runs a distributed measurement campaign: it
// partitions the site ranks into N contiguous shards, supervises one
// worker per shard (restarting crashed workers from their shard
// checkpoints), merges the shard journals into a dataset byte-identical
// to a single-process crawl, and computes the full report from the
// commutative merge of per-shard analysis indexes.
//
// By default the workers run as goroutines in this process. With
// -worker-bin pointing at a topics-crawl binary, each shard becomes a
// separate `topics-crawl -shard i/N` process whose exit code drives
// supervision (0 done, 130 drained, else crash → restart); add
// -worker-metrics to give every worker process a live /__metrics
// endpoint that topics-monitor -shards aggregates.
//
//	topics-orch -seed 1 -sites 50000 -shards 8 -out crawl.jsonl
//	topics-orch -worker-bin ./topics-crawl -shards 8 -out crawl.jsonl -worker-metrics
//	topics-orch -resume -shards 8 -out crawl.jsonl   # continue after a drain
//
// SIGTERM / Ctrl-C drains every worker to a durable checkpoint and
// exits 130; rerunning with -resume (same seed, sites and shard count)
// completes the campaign with byte-identical output.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"github.com/netmeasure/topicscope"
	"github.com/netmeasure/topicscope/internal/campaign"
	"github.com/netmeasure/topicscope/internal/obs"
	"github.com/netmeasure/topicscope/internal/orchestrator"
)

func main() {
	var (
		seed          = flag.Uint64("seed", 1, "world seed")
		sites         = flag.Int("sites", 50000, "number of ranked sites to crawl")
		shards        = flag.Int("shards", 4, "contiguous rank shards / workers")
		workers       = flag.Int("workers", 16, "crawl parallelism inside each worker")
		out           = flag.String("out", "crawl.jsonl", "merged dataset output (JSONL, .gz transparently); shards journal to <out>.shard-i")
		attest        = flag.String("attest", "attest.jsonl", "attestation records output (JSONL)")
		allowOut      = flag.String("allowlist", "allow.dat", "healthy allow-list output (.dat)")
		reportOut     = flag.String("report", "", "write the report as JSON here instead of rendering it to stdout")
		enforce       = flag.Bool("enforce", false, "run the healthy-gate ablation instead of the corrupted gate")
		quiet         = flag.Bool("quiet", false, "suppress progress logging")
		resume        = flag.Bool("resume", false, "resume an interrupted distributed campaign from the shard checkpoints")
		ckptEvery     = flag.Int("checkpoint-every", topicscope.DefaultCheckpointEvery, "sites between durable checkpoints per shard")
		useChaos      = flag.Bool("chaos", false, "inject the paper-calibrated fault profile client-side")
		chaosSeed     = flag.Uint64("chaos-seed", 1, "fault-injection seed (independent of the world seed)")
		retries       = flag.Int("retries", 2, "extra attempts per navigation/fetch; 0 disables retries")
		maxRestarts   = flag.Int("max-restarts", orchestrator.DefaultMaxRestarts, "restart budget per shard after a worker crash; 0 disables restarts")
		workerBin     = flag.String("worker-bin", "", "spawn each shard as this topics-crawl binary instead of in-process goroutines")
		workerMetrics = flag.Bool("worker-metrics", false, "with -worker-bin: give each worker a live /__metrics endpoint (topics-monitor -shards aggregates them)")
		doFsck        = flag.Bool("fsck", false, "verify every shard journal after the crawl; corrupt shards are truncated to their last clean checkpoint and recrawled")
	)
	flag.Parse()

	var logger *slog.Logger
	if !*quiet {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	campRestarts := *maxRestarts
	if campRestarts <= 0 {
		campRestarts = -1 // Campaign convention: negative disables restarts
	}
	var launcher orchestrator.Launcher
	if *workerBin != "" {
		l := &orchestrator.ExecLauncher{Bin: *workerBin, Stderr: os.Stderr}
		if *workerMetrics {
			l.ExtraArgs = []string{"-pprof", "127.0.0.1:0"}
		}
		launcher = l
	}

	c := orchestrator.Campaign{
		Spec: campaign.Spec{
			World:   topicscope.WorldConfig{Seed: *seed, NumSites: *sites},
			Enforce: *enforce, Chaos: *useChaos, ChaosSeed: *chaosSeed,
			Attempts: campaign.Attempts(*retries),
		},
		Workers:    *workers,
		OutputPath: *out, CheckpointEvery: *ckptEvery,
		Shards: *shards, Resume: *resume, MaxRestarts: campRestarts,
		Launcher: launcher, Logger: logger, Metrics: obs.NewRegistry(),
		Fsck: *doFsck,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := c.Run(ctx)
	if errors.Is(err, context.Canceled) {
		fmt.Println("campaign drained: every shard is durable through its final checkpoint; rerun with -resume to continue")
		os.Exit(130)
	}
	if err != nil {
		fatal(err)
	}

	fmt.Printf("campaign: %d shards, %d restarts\n", len(res.Shards), res.Restarts)
	fmt.Printf("dataset: %s (%d visit records, %d sites, payload crc %08x)\n",
		*out, res.Merge.Records, res.Merge.Sites, res.Merge.PayloadCRC)

	if err := topicscope.SaveAttestations(*attest, res.Attestations); err != nil {
		fatal(err)
	}
	fmt.Printf("attestations: %s (%d domains)\n", *attest, len(res.Attestations))
	if err := topicscope.SaveAllowlist(*allowOut, res.Input.Allowlist); err != nil {
		fatal(err)
	}
	fmt.Printf("allow-list: %s (%d domains)\n", *allowOut, res.Input.Allowlist.Len())

	if *reportOut != "" {
		if err := topicscope.WriteFileAtomic(*reportOut, res.Report.WriteJSON); err != nil {
			fatal(err)
		}
		fmt.Printf("report: %s\n", *reportOut)
		return
	}
	fmt.Print(res.Report.Render())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "topics-orch:", err)
	os.Exit(1)
}
