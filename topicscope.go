// Package topicscope is a measurement framework reproducing "A First
// View of Topics API Usage in the Wild" (Verna, Jha, Trevisan, Mellia —
// CoNEXT '24): an instrumented-browser crawler for the Google Topics
// API, a full browser-side Topics engine, the Privacy Sandbox enrolment
// artifacts (allow-list and attestation files, including Chromium's
// corrupted-database default-allow bug), a deterministic synthetic web
// substituting for the live top-50k sites, and an analysis pipeline that
// regenerates every table and figure of the paper.
//
// The package re-exports the library's supported surface; implementation
// lives under internal/. Typical use is the one-call Campaign:
//
//	results, err := topicscope.Campaign{Seed: 1, Sites: 5000}.Run(ctx)
//	fmt.Print(results.Report.Render())
//
// or the individual pieces: GenerateWorld + NewServer + NewCrawler +
// Analyze for custom experiments, and NewEngine for using the Topics API
// engine directly as a library.
package topicscope

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strconv"
	"time"

	"github.com/netmeasure/topicscope/internal/analysis"
	"github.com/netmeasure/topicscope/internal/campaign"
	"github.com/netmeasure/topicscope/internal/crawler"
	"github.com/netmeasure/topicscope/internal/dataset"
	"github.com/netmeasure/topicscope/internal/obs"
)

// Campaign runs the paper's full methodology end to end: generate the
// synthetic web, serve it in-process, crawl every site Before- and
// After-Accept with the corrupted allow-list gate, check well-known
// attestations, and compute every table and figure.
type Campaign struct {
	// Seed makes the whole campaign reproducible.
	Seed uint64
	// Sites is the rank-list length (default 50,000 like the paper;
	// scaled-down runs keep the result shapes).
	Sites int
	// Workers is crawl parallelism (default 8).
	Workers int
	// Enforce runs the healthy-gate ablation instead of the paper's
	// corrupted-gate configuration.
	Enforce bool
	// OutputPath, when set, streams the visit records there as JSONL
	// (.gz transparently) through a crash-safe journal: framed records,
	// periodic fsync'd checkpoints and a manifest, so an interrupted
	// campaign resumes with topics-crawl -resume or ResumeJournal.
	OutputPath string
	// CheckpointEvery is the journal checkpoint cadence in completed
	// sites (0 = DefaultCheckpointEvery). Only meaningful with
	// OutputPath.
	CheckpointEvery int
	// Start is the virtual date of the first visit (zero = the paper's
	// March 30th 2024). Earlier dates observe fewer active callers —
	// platforms cannot call before their enrolment.
	Start time.Time
	// Vantage is the visitor jurisdiction: "eu" (default, the paper's
	// single-location setup) or "us" (§6's untested alternative:
	// geo-fenced banners, unconditional ad stacks, gdprApplies=false).
	Vantage string
	// Chaos enables the deterministic fault injector, layering the
	// paper's §2.4 live-host weather on top of the world's unreachable
	// sites; ChaosSeed drives it (independent of the world seed).
	Chaos     bool
	ChaosSeed uint64
	// Retries is the extra-attempt budget per navigation/fetch: 0 keeps
	// the default policy (2 retries), negative disables retries.
	Retries int
	// Logger receives progress (nil = silent).
	Logger *slog.Logger
	// Trace, when set, receives the campaign's span trees as JSONL: one
	// record per visit (in rank order) plus one each for the attestation
	// sweep and the analysis pass. All timestamps sit on deterministic
	// stage clocks, so the stream is byte-identical for a given seed
	// regardless of GOMAXPROCS or worker count.
	Trace io.Writer
	// Metrics, when set, is the registry the campaign records into
	// (counters and stage histograms); nil means a fresh one, returned
	// in Results.Metrics either way. Sharing a registry lets a caller
	// serve it live (DebugMux) while the campaign runs, or merge several
	// campaigns' metrics into one.
	Metrics *MetricsRegistry
	// WorldConfig overrides the generated world entirely (optional).
	WorldConfig *WorldConfig
}

// Results bundles a campaign's outputs.
type Results struct {
	// World is the synthetic web the campaign measured.
	World *World
	// Data holds every visit record.
	Data *Dataset
	// Stats summarises the crawl.
	Stats CrawlStats
	// Attestations are the well-known checks for every relevant domain.
	Attestations []AttestationRecord
	// Report holds every computed experiment.
	Report *Report
	// Analysis is the input the report was computed from, carrying the
	// already-built analysis index: further Compute* calls on it reuse
	// the one dataset pass the campaign already paid for.
	Analysis *AnalysisInput
	// Metrics is the campaign's observability registry: crawl, engine,
	// attestation and analysis counters plus per-stage latency
	// histograms. Serve it with ObsHandler or merge it into another
	// registry.
	Metrics *MetricsRegistry
	// TraceSummary aggregates the campaign's traces: visit outcomes and
	// per-stage stage-clock time (the data behind topics-monitor's
	// breakdown), populated whether or not Campaign.Trace was set.
	TraceSummary *TraceSummary
}

// Run executes the campaign.
func (c Campaign) Run(ctx context.Context) (*Results, error) {
	attempts := 0 // crawler default
	if c.Retries != 0 {
		attempts = campaign.Attempts(c.Retries)
	}
	world := WorldConfig{Seed: c.Seed, NumSites: c.Sites}
	if c.WorldConfig != nil {
		world = *c.WorldConfig
	}
	env := campaign.Spec{
		World: world, Enforce: c.Enforce, Start: c.Start, Vantage: c.Vantage,
		Chaos: c.Chaos, ChaosSeed: c.ChaosSeed, Attempts: attempts,
	}.NewEnv(1, campaign.AllRanks)
	reg := c.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	summary := obs.NewSummary()
	sink := obs.Tee{summary}
	var traceWriter *obs.TraceWriter
	if c.Trace != nil {
		traceWriter = obs.NewTraceWriter(c.Trace)
		sink = append(sink, traceWriter)
	}
	ccfg := env.Config()
	ccfg.Workers = c.Workers
	ccfg.Collect = true
	ccfg.Logger = c.Logger
	ccfg.Metrics = reg
	ccfg.Traces = sink
	var journal *dataset.JournalWriter
	var liveSink *analysis.LiveSink
	if c.OutputPath != "" {
		// The incremental-analysis fold rides the journal's observer
		// hook: every appended record updates a live index, and every
		// committed checkpoint serializes it beside the journal
		// (<out>.idx), so topics-monitor -live and topics-report -live
		// render the campaign's tables mid-crawl in O(tail + snapshot).
		// The campaign's own report reads the same fold.
		liveSink = analysis.NewLiveSink(c.OutputPath, &analysis.Input{Allowlist: env.Allow, Metrics: reg})
		var err error
		journal, err = dataset.CreateJournal(c.OutputPath, dataset.JournalOptions{
			CheckpointEvery: c.CheckpointEvery,
			Metrics:         reg,
			Observer:        liveSink,
		})
		if err != nil {
			return nil, err
		}
		defer journal.Abort() // no-op after Close
		ccfg.Writer = journal
	}
	cr := crawler.New(ccfg)

	res, err := cr.Run(ctx, env.World.List())
	if err != nil {
		// On cancellation the crawler has already drained and flushed a
		// final checkpoint; close the journal so the manifest is durable
		// before reporting the interruption.
		if journal != nil {
			if cerr := journal.Close(); cerr != nil && ctx.Err() == nil {
				return nil, fmt.Errorf("topicscope: closing dataset: %w", cerr)
			}
		}
		return nil, fmt.Errorf("topicscope: crawling: %w", err)
	}
	var live *analysis.LiveIndex
	if journal != nil {
		if err := journal.Close(); err != nil {
			return nil, fmt.Errorf("topicscope: closing dataset: %w", err)
		}
		if live = liveSink.Live(); live == nil {
			return nil, fmt.Errorf("topicscope: reading back the analysis index of %s", c.OutputPath)
		}
	} else {
		live = analysis.BuildShardIndex(&analysis.Input{Data: res.Data, Allowlist: env.Allow, Metrics: reg})
	}
	an, err := env.Analyze(ctx, cr, live, res.Data, reg)
	if err != nil {
		return nil, fmt.Errorf("topicscope: %w", err)
	}

	// Campaign-level traces: the attestation sweep (one span per domain,
	// built from the already-sorted records) and the analysis pass, both
	// on stage clocks picking up where the crawl's virtual time ended.
	start := c.Start
	if start.IsZero() {
		start = DefaultCrawlStart
	}
	attTrace := attestationTrace(an.Attestations, reg, start.Add(res.Stats.Elapsed))
	if err := sink.WriteTrace(attTrace); err != nil {
		return nil, fmt.Errorf("topicscope: writing attestation trace: %w", err)
	}
	if err := sink.WriteTrace(analysis.BuildTrace(an.Input, attTrace.Root.End)); err != nil {
		return nil, fmt.Errorf("topicscope: writing analysis trace: %w", err)
	}
	if traceWriter != nil {
		if err := traceWriter.Flush(); err != nil {
			return nil, fmt.Errorf("topicscope: flushing traces: %w", err)
		}
	}
	return &Results{
		World:        env.World,
		Data:         res.Data,
		Stats:        res.Stats,
		Attestations: an.Attestations,
		Report:       an.Report,
		Analysis:     an.Input,
		Metrics:      reg,
		TraceSummary: summary,
	}, nil
}

// attestationTrace renders the well-known attestation sweep as one span
// per domain on a stage clock, charging obs.AttestCost each. Built from
// the sorted records after the fact, it is deterministic no matter how
// the concurrent checks interleaved.
func attestationTrace(recs []AttestationRecord, reg *obs.Registry, start time.Time) *obs.VisitTrace {
	tr := obs.NewTrace("attestation", start, obs.A("domains", strconv.Itoa(len(recs))))
	for i := range recs {
		rec := &recs[i]
		outcome := "missing"
		switch {
		case rec.Valid:
			outcome = "valid"
		case rec.Present:
			outcome = "invalid"
		}
		tr.Start("attest_check", obs.A("domain", rec.Domain), obs.A("outcome", outcome))
		tr.Advance(obs.AttestCost)
		tr.End()
		reg.Add("attestation_checks_total", 1, "outcome", outcome)
	}
	return &obs.VisitTrace{Phase: "attestation", Root: tr.Finish()}
}

// DefaultCrawlStart is the virtual time campaigns begin at — the paper's
// crawl date.
var DefaultCrawlStart = time.Date(2024, 3, 30, 6, 0, 0, 0, time.UTC)
