// Command topics-crawl runs the paper's measurement campaign over the
// synthetic web: Before-Accept and After-Accept visits of every ranked
// site with the corrupted allow-list gate, followed by well-known
// attestation checks. It writes the visit dataset (JSONL), the
// attestation records (JSONL) and the healthy allow-list (.dat) that
// topics-analyze needs.
//
// The dataset is written through a crash-safe journal: a kill -9 or a
// SIGTERM-triggered graceful drain both leave a file that -resume picks
// up from its last checkpoint, and the finished dataset is byte-for-byte
// what an uninterrupted run would have produced.
//
//	topics-crawl -seed 1 -sites 50000 -out crawl.jsonl -attest attest.jsonl -allowlist allow.dat
//	topics-crawl -connect 127.0.0.1:8080 ...   # crawl a topics-serve instance over TCP
//	topics-crawl -resume -out crawl.jsonl ...  # continue an interrupted campaign
//
// With -shard i/N it runs as one worker of a distributed campaign
// (normally under topics-orch): it generates only its contiguous rank
// window of the world, crawls it into <out>.shard-i with independent
// checkpoints, and leaves dataset merge, attestation checks and
// analysis to the coordinator. Exit codes are the worker protocol: 0
// done, 130 drained (resumable), anything else a crash the coordinator
// restarts from the shard checkpoint.
//
//	topics-crawl -shard 2/8 -seed 1 -sites 500000 -out crawl.jsonl
package main

import (
	"compress/gzip"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/netmeasure/topicscope"
	"github.com/netmeasure/topicscope/internal/analysis"
	"github.com/netmeasure/topicscope/internal/campaign"
	"github.com/netmeasure/topicscope/internal/chaos"
	"github.com/netmeasure/topicscope/internal/durable"
	"github.com/netmeasure/topicscope/internal/orchestrator"
)

func main() {
	var (
		seed       = flag.Uint64("seed", 1, "world seed (must match the serving world)")
		sites      = flag.Int("sites", 50000, "number of ranked sites to crawl")
		workers    = flag.Int("workers", 16, "crawl parallelism")
		connect    = flag.String("connect", "", "crawl a topics-serve instance at this address instead of in-process")
		connectTLS = flag.String("connect-tls", "", "crawl a topics-serve -tls instance at this address (requires -ca-cert)")
		caCert     = flag.String("ca-cert", "topicscope-ca.pem", "CA certificate PEM written by topics-serve -tls")
		out        = flag.String("out", "crawl.jsonl", "visit dataset output (JSONL)")
		attest     = flag.String("attest", "attest.jsonl", "attestation records output (JSONL)")
		allowOut   = flag.String("allowlist", "allow.dat", "healthy allow-list output (.dat)")
		enforce    = flag.Bool("enforce", false, "run the healthy-gate ablation instead of the corrupted gate")
		quiet      = flag.Bool("quiet", false, "suppress progress logging")
		resume     = flag.Bool("resume", false, "resume an interrupted campaign from -out's last checkpoint")
		ckptEvery  = flag.Int("checkpoint-every", topicscope.DefaultCheckpointEvery, "sites between durable checkpoints (fsync + manifest)")
		budgetMS   = flag.Int("visit-budget-ms", 0, "per-visit deadline on the virtual clock; 0 disables the watchdog")
		timeoutMS  = flag.Int("timeout-ms", 10000, "per-request timeout for -connect mode")
		useChaos   = flag.Bool("chaos", false, "inject the paper-calibrated fault profile client-side")
		chaosSeed  = flag.Uint64("chaos-seed", 1, "fault-injection seed (independent of the world seed)")
		retries    = flag.Int("retries", 2, "extra attempts per navigation/fetch; 0 disables retries")
		tracePath  = flag.String("trace", "", "write per-visit span trees here (JSONL, .gz transparently); tail with topics-monitor -tail")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof and live crawl metrics at /__metrics on this address")
		shard      = flag.String("shard", "", "run as shard i/N of a distributed campaign (see topics-orch); writes <out>.shard-i")

		storageChaos = flag.Bool("storage-chaos", false, "inject seeded storage faults (EIO blips, short writes, torn renames) on every artifact write")
		storageSeed  = flag.Uint64("storage-chaos-seed", 1, "storage fault-injection seed")
		storageRate  = flag.Float64("storage-fault-rate", 0.02, "per-operation storage fault probability under -storage-chaos")
		enospcAfter  = flag.Int64("storage-enospc-after", 0, "simulated disk capacity in bytes; the crossing write latches a persistent ENOSPC (0 = unlimited)")
	)
	flag.Parse()

	spec := campaign.Spec{
		World:   topicscope.WorldConfig{Seed: *seed, NumSites: *sites},
		Enforce: *enforce, Chaos: *useChaos, ChaosSeed: *chaosSeed,
		Attempts: campaign.Attempts(*retries),
	}
	visitBudget := time.Duration(*budgetMS) * time.Millisecond
	if *shard != "" {
		if *connect != "" || *connectTLS != "" || *tracePath != "" {
			fatal(errors.New("-shard workers crawl their world window in-process: -connect, -connect-tls and -trace are unsupported"))
		}
		runShardWorker(spec, shardWorkerFlags{
			shard: *shard, workers: *workers, visitBudget: visitBudget,
			out: *out, quiet: *quiet, resume: *resume,
			ckptEvery: *ckptEvery, pprofAddr: *pprofAddr,
			storageChaos: *storageChaos, storageSeed: *storageSeed,
			storageRate: *storageRate, enospcAfter: *enospcAfter,
		})
		return
	}

	// The in-process world serves the crawl unless -connect points it at
	// a topics-serve instance; either way the spec's chaos weather rides
	// the client.
	env := spec.NewEnv(1, campaign.AllRanks)
	world := env.World
	scheme := "http"
	switch {
	case *connectTLS != "":
		pem, err := os.ReadFile(*caCert)
		if err != nil {
			fatal(err)
		}
		client, err := topicscope.NewTLSClientFromPEM(world, *connectTLS, pem, time.Duration(*timeoutMS)*time.Millisecond)
		if err != nil {
			fatal(err)
		}
		env.UseClient(client)
		scheme = "https"
	case *connect != "":
		env.UseClient(topicscope.NewTCPClient(world, *connect, time.Duration(*timeoutMS)*time.Millisecond))
	}

	var logger *slog.Logger
	if !*quiet {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}

	// Observability first: the journal reports its recovery and
	// checkpoint counters through the same registry as the crawl.
	reg := topicscope.NewMetricsRegistry()

	list := world.List()
	rankSite := make(map[int]string, len(list.Entries))
	for _, e := range list.Entries {
		rankSite[e.Rank] = e.Domain
	}

	// The dataset is a crash-safe journal: framed records, periodic
	// fsync'd checkpoints, and a manifest that makes -resume O(tail).
	// The journal's observer maintains the live analysis index beside it
	// (<out>.idx at every checkpoint) for topics-monitor -live and
	// topics-report -live.
	skip := map[string]bool{}
	storageFS, storageRetry := storagePolicy(*storageChaos, *storageSeed, *storageRate, *enospcAfter, reg)
	liveIn := &topicscope.AnalysisInput{Allowlist: env.Allow, Metrics: reg, FS: storageFS}
	jopts := topicscope.JournalOptions{
		CheckpointEvery: *ckptEvery,
		Metrics:         reg,
		Skip:            func(rank int) bool { return skip[rankSite[rank]] },
		Durable:         durable.Options{FS: storageFS, Retry: storageRetry},
	}
	var journal *topicscope.DatasetJournal
	var sink *topicscope.LiveAnalysisSink
	if *resume {
		var lst *topicscope.LiveAnalysisStats
		var err error
		sink, lst, err = topicscope.OpenLiveAnalysisSink(*out, liveIn)
		if err != nil {
			fatal(err)
		}
		if lst.SnapshotRestored {
			fmt.Printf("resume: index snapshot restored (%d records)\n", lst.SnapshotRecords)
		}
		jopts.Observer = sink
		var st *topicscope.ResumeState
		journal, st, err = topicscope.ResumeJournal(*out, jopts)
		if err != nil {
			fatal(err)
		}
		for site := range st.Completed {
			skip[site] = true
		}
		for _, e := range list.Entries {
			if e.Rank <= st.WatermarkRank {
				skip[e.Domain] = true
			}
		}
		fmt.Printf("resume: %d records kept, skipping %d already-crawled sites (%d tail bytes replayed)\n",
			st.RecordsKept, len(skip), st.BytesRead)
		if st.RecordsDropped > 0 {
			fmt.Printf("resume: dropped %d torn trailing records; their sites recrawl\n", st.RecordsDropped)
		}
	} else {
		sink = topicscope.NewLiveAnalysisSink(*out, liveIn)
		jopts.Observer = sink
		var err error
		journal, err = topicscope.CreateJournal(*out, jopts)
		if err != nil {
			fatal(err)
		}
	}

	// Every crawl folds its traces into a summary; -trace additionally
	// streams them as JSONL, -pprof serves the registry live.
	summary := topicscope.NewTraceSummary()
	traces := topicscope.TraceTee{summary}
	var traceWriter *topicscope.TraceWriter
	var traceClose func() error
	if *tracePath != "" {
		traceRaw, err := os.Create(*tracePath) //topicslint:ignore atomicwrite streaming trace sink, tailed live by topics-monitor; cannot be written atomically
		if err != nil {
			fatal(err)
		}
		var traceSink io.Writer = traceRaw
		traceClose = traceRaw.Close
		if strings.HasSuffix(*tracePath, ".gz") {
			zw := gzip.NewWriter(traceRaw)
			traceSink = zw
			traceClose = func() error {
				if err := zw.Close(); err != nil {
					return err
				}
				return traceRaw.Close()
			}
		}
		traceWriter = topicscope.NewTraceWriter(traceSink)
		traces = append(traces, traceWriter)
	}
	if *pprofAddr != "" {
		dbg, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("pprof on http://%s/debug/pprof/ (metrics at %s)\n", dbg.Addr(), topicscope.MetricsPath)
		go func() {
			srv := &http.Server{Handler: topicscope.DebugMux(reg), ReadHeaderTimeout: 10 * time.Second}
			srv.Serve(dbg) //nolint:errcheck // best-effort debug endpoint
		}()
	}

	ccfg := env.Config()
	ccfg.Workers = *workers
	ccfg.VisitBudget = visitBudget
	ccfg.Writer = journal
	ccfg.SkipSites = skip
	ccfg.Scheme = scheme
	ccfg.Logger = logger
	ccfg.Metrics = reg
	ccfg.Traces = traces
	cr := topicscope.NewCrawler(ccfg)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGTERM / Ctrl-C cancels the context; the crawler drains — stops
	// dispatching, finishes what it can, flushes a final checkpoint —
	// and Run returns the partial result with ctx.Err().
	res, err := cr.Run(ctx, list)
	drained := errors.Is(err, context.Canceled)
	if err != nil && !drained {
		failStorageAware(journal, err)
	}
	if err := journal.Close(); err != nil {
		failStorageAware(nil, err)
	}
	// The closing lines and the attestation sweep describe the whole
	// journal — a resumed run's earlier segments included — so they read
	// the journal's fold, not this run's records. The fold is finalized
	// in place once its counts and callers are read.
	live := sink.Live()
	if live == nil {
		fatal(fmt.Errorf("reading back the analysis index of %s", *out))
	}
	records, callers := live.Visits(), live.Callers()
	whole := &topicscope.AnalysisInput{Allowlist: env.Allow}
	idx, err := analysis.MergeShardIndexes(whole, live)
	if err != nil {
		fatal(err)
	}
	topicscope.AdoptAnalysisIndex(whole, idx)
	fmt.Printf("crawl: %s\n", res.Stats)
	if env.Injector != nil {
		fmt.Printf("chaos: %s\n", env.Injector.Stats().Snapshot())
	}
	fmt.Printf("dataset: %s (%d visit records)\n", *out, records)
	fmt.Printf("success rate: %.1f%% (paper: 86.8%%)\n", analysis.ComputeReliability(whole).SuccessRate*100)
	if traceWriter != nil {
		if err := traceWriter.Flush(); err != nil {
			fatal(err)
		}
		if err := traceClose(); err != nil {
			fatal(err)
		}
		nTraces, _, _, _, _ := summary.Counts()
		fmt.Printf("traces: %s (%d records)\n", *tracePath, nTraces)
	}
	if drained {
		fmt.Println("crawl drained: dataset is durable through its final checkpoint; rerun with -resume to continue")
		os.Exit(130)
	}

	// Attestation checks for every allow-listed domain plus every
	// calling party the journal holds.
	recs, err := env.Sweep(ctx, cr, callers)
	if err != nil {
		fatal(err)
	}
	if err := topicscope.SaveAttestations(*attest, recs); err != nil {
		fatal(err)
	}
	fmt.Printf("attestations: %s (%d domains)\n", *attest, len(recs))

	if err := topicscope.SaveAllowlist(*allowOut, env.Allow); err != nil {
		fatal(err)
	}
	fmt.Printf("allow-list: %s (%d domains)\n", *allowOut, env.Allow.Len())
}

// shardWorkerFlags carries the run flags a -shard worker honours
// beside the campaign spec.
type shardWorkerFlags struct {
	shard         string
	workers       int
	visitBudget   time.Duration
	out           string
	quiet, resume bool
	ckptEvery     int
	pprofAddr     string
	storageChaos  bool
	storageSeed   uint64
	storageRate   float64
	enospcAfter   int64
}

// runShardWorker is the -shard i/N mode: one worker of a distributed
// campaign, crawling only its contiguous rank window into its own
// journal shard. The coordinator owns everything downstream (merge,
// attestations, analysis), so this path writes no -attest/-allowlist
// artifacts.
func runShardWorker(camp campaign.Spec, f shardWorkerFlags) {
	index, count, err := orchestrator.ParseShard(f.shard)
	if err != nil {
		fatal(err)
	}
	specs, err := orchestrator.Partition(camp.World.NumSites, count)
	if err != nil {
		fatal(err)
	}
	if count != len(specs) {
		fatal(fmt.Errorf("%d shards over %d sites: at most one shard per site", count, camp.World.NumSites))
	}
	spec := specs[index]

	reg := topicscope.NewMetricsRegistry()
	metricsURL := ""
	if f.pprofAddr != "" {
		dbg, err := net.Listen("tcp", f.pprofAddr)
		if err != nil {
			fatal(err)
		}
		metricsURL = fmt.Sprintf("http://%s%s", dbg.Addr(), topicscope.MetricsPath)
		fmt.Printf("pprof on http://%s/debug/pprof/ (metrics at %s)\n", dbg.Addr(), topicscope.MetricsPath)
		go func() {
			srv := &http.Server{Handler: topicscope.DebugMux(reg), ReadHeaderTimeout: 10 * time.Second}
			srv.Serve(dbg) //nolint:errcheck // best-effort debug endpoint
		}()
	}
	var logger *slog.Logger
	if !f.quiet {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	storageFS, storageRetry := storagePolicy(f.storageChaos, f.storageSeed, f.storageRate, f.enospcAfter, reg)
	sc := orchestrator.ShardCampaign{
		Spec: camp, Workers: f.workers, VisitBudget: f.visitBudget,
		OutputPath: f.out, CheckpointEvery: f.ckptEvery,
		Shard: spec, Resume: f.resume,
		Logger: logger, Metrics: reg, MetricsURL: metricsURL,
		FS: storageFS, Retry: storageRetry,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := sc.Run(ctx)
	switch {
	case err == nil:
		fmt.Printf("shard %s: %s\n", spec, res.Stats)
		fmt.Printf("shard journal: %s\n", res.Path)
	case errors.Is(err, context.Canceled):
		fmt.Printf("shard %s drained: journal durable through its final checkpoint; rerun with -resume (or let topics-orch -resume)\n", spec)
		os.Exit(130)
	default:
		failStorageAware(nil, err)
	}
}

// storagePolicy builds the artifact-write filesystem and retry policy:
// the fault-injecting FS under -storage-chaos (nil otherwise, meaning
// the real OS), and a bounded retry for authoritative writes whose
// backoff rides the virtual clock inside the crawler.
func storagePolicy(inject bool, seed uint64, rate float64, enospcAfter int64, reg *topicscope.MetricsRegistry) (durable.FS, durable.RetryPolicy) {
	retry := durable.RetryPolicy{Attempts: 4, Backoff: 100 * time.Millisecond, Metrics: reg}
	if !inject {
		return nil, retry
	}
	return chaos.NewFaultFS(nil, chaos.UniformFSProfile(seed, rate, enospcAfter, reg)), retry
}

// failStorageAware is fatal plus the storage exit-code protocol: a
// persistent out-of-disk failure aborts the journal (the last durable
// checkpoint survives) and exits with the distinct resumable code 131,
// mirroring 130 for a graceful drain.
func failStorageAware(journal *topicscope.DatasetJournal, err error) {
	if durable.IsDiskFull(err) {
		if journal != nil {
			journal.Abort()
		}
		fmt.Fprintln(os.Stderr, "topics-crawl: out of disk space:", err)
		fmt.Fprintln(os.Stderr, "topics-crawl: dataset is durable through its last checkpoint; free space and rerun with -resume")
		os.Exit(131)
	}
	fatal(err)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "topics-crawl:", err)
	os.Exit(1)
}
