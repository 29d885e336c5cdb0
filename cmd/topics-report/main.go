// Command topics-report runs the whole study in one shot — generate the
// world, crawl it Before- and After-Accept, check attestations, compute
// every table and figure — and prints (or writes) the full report.
//
//	topics-report -seed 1 -sites 50000 -workers 16 -out report.txt
//
// With -live it instead renders the report from an existing (possibly
// still running) campaign journal: the checkpoint index snapshot
// (<data>.idx) is restored and only the journal tail past the committed
// offset is folded, so re-analysis reads O(tail + snapshot) bytes
// instead of the whole dataset. At the final checkpoint the output is
// byte-identical to the post-hoc report.
//
//	topics-report -live crawl.jsonl.gz -seed 1 -sites 50000
package main

import (
	"compress/gzip"
	"context"
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
	"github.com/netmeasure/topicscope/internal/campaign"
)

func main() {
	var (
		seed      = flag.Uint64("seed", 1, "world seed")
		sites     = flag.Int("sites", 50000, "number of ranked sites")
		workers   = flag.Int("workers", 16, "crawl parallelism")
		out       = flag.String("out", "", "write the report here instead of stdout")
		data      = flag.String("data", "", "also write the visit dataset here (JSONL)")
		jsonOut   = flag.String("json", "", "also write the machine-readable report here (JSON)")
		enforce   = flag.Bool("enforce", false, "healthy-gate ablation")
		quiet     = flag.Bool("quiet", false, "suppress progress logging")
		date      = flag.String("date", "", "virtual crawl date YYYY-MM-DD (default 2024-03-30); earlier dates see fewer active callers")
		vantage   = flag.String("vantage", "eu", "visitor jurisdiction: eu (the paper's setup) or us")
		useChaos  = flag.Bool("chaos", false, "inject the paper-calibrated fault profile during the crawl")
		chaosSeed = flag.Uint64("chaos-seed", 1, "fault-injection seed (independent of the world seed)")
		retries   = flag.Int("retries", 2, "extra attempts per navigation/fetch; 0 disables retries")
		tracePath = flag.String("trace", "", "write the campaign's span trees here (JSONL, .gz transparently)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof and live campaign metrics at /__metrics on this address")
		livePath  = flag.String("live", "", "render the report from this campaign journal (index snapshot + tail fold) instead of crawling; -seed/-sites must match the campaign")
	)
	flag.Parse()

	var logger *slog.Logger
	if !*quiet {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var start time.Time
	if *date != "" {
		var err error
		start, err = time.Parse("2006-01-02", *date)
		if err != nil {
			fatal(err)
		}
	}

	reg := topicscope.NewMetricsRegistry()
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
	var traceOut io.Writer
	var traceClose func() error
	if *tracePath != "" {
		raw, err := os.Create(*tracePath) //topicslint:ignore atomicwrite streaming trace sink, tailed live by topics-monitor; cannot be written atomically
		if err != nil {
			fatal(err)
		}
		traceOut, traceClose = raw, raw.Close
		if strings.HasSuffix(*tracePath, ".gz") {
			zw := gzip.NewWriter(raw)
			traceOut = zw
			traceClose = func() error {
				if err := zw.Close(); err != nil {
					return err
				}
				return raw.Close()
			}
		}
	}

	if *livePath != "" {
		spec := campaign.Spec{
			World:   topicscope.WorldConfig{Seed: *seed, NumSites: *sites},
			Enforce: *enforce, Chaos: *useChaos, ChaosSeed: *chaosSeed,
		}
		if err := liveReport(ctx, *livePath, spec, *out, *jsonOut, reg); err != nil {
			fatal(err)
		}
		return
	}

	results, err := topicscope.Campaign{
		Seed:       *seed,
		Sites:      *sites,
		Workers:    *workers,
		Enforce:    *enforce,
		OutputPath: *data,
		Start:      start,
		Vantage:    *vantage,
		Chaos:      *useChaos,
		ChaosSeed:  *chaosSeed,
		Retries:    campaign.CampaignRetries(*retries),
		Logger:     logger,
		Trace:      traceOut,
		Metrics:    reg,
	}.Run(ctx)
	if err != nil {
		fatal(err)
	}
	if traceClose != nil {
		if err := traceClose(); err != nil {
			fatal(err)
		}
		nTraces, _, _, _, _ := results.TraceSummary.Counts()
		fmt.Fprintf(os.Stderr, "traces: %s (%d records)\n", *tracePath, nTraces)
	}

	if *jsonOut != "" {
		if err := topicscope.WriteFileAtomic(*jsonOut, results.Report.WriteJSON); err != nil {
			fatal(err)
		}
	}

	// Headline figures for the summary line come straight from the
	// campaign's analysis index (results.Analysis) — already built by
	// Analyze, so these Compute* calls cost a map lookup, not a rescan.
	overview := topicscope.ComputeOverview(results.Analysis)
	text := fmt.Sprintf("topicscope report — seed=%d sites=%d enforce=%v\ncrawl: %s\nvisited: %d sites, %d third parties\n\n%s",
		*seed, *sites, *enforce, results.Stats, overview.Visited, overview.UniqueThirdParties, results.Report.Render())
	if *out == "" {
		fmt.Print(text)
		return
	}
	err = topicscope.WriteFileAtomic(*out, func(w io.Writer) error {
		_, werr := io.WriteString(w, text)
		return werr
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("report written to %s\n", *out)
}

// liveReport renders the analysis report straight from a campaign
// journal: restore the checkpoint index snapshot, fold only the
// uncommitted tail, then run the campaign's post-crawl step over the
// assembled fold — the attestation sweep over its callers and every
// section. At the final checkpoint the output is byte-identical to the
// post-hoc report over the finished dataset.
func liveReport(ctx context.Context, path string, spec campaign.Spec, out, jsonOut string, reg *topicscope.MetricsRegistry) error {
	env := spec.NewEnv(1, campaign.AllRanks)
	live, st, err := topicscope.LoadLiveAnalysisIndex(path, &topicscope.AnalysisInput{Allowlist: env.Allow, Metrics: reg})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "live: %d records (snapshot %d + tail %d), %d journal bytes read, snapshot restored: %v\n",
		live.Visits(), st.SnapshotRecords, st.TailRecords, st.BytesRead, st.SnapshotRestored)

	// The sweep runs against the same served world as the campaign's
	// (and the same chaos weather — its decisions are pure per-request
	// functions, so the outcomes match).
	an, err := env.Analyze(ctx, nil, live, nil, reg)
	if err != nil {
		return err
	}
	report := an.Report

	if jsonOut != "" {
		if err := topicscope.WriteFileAtomic(jsonOut, report.WriteJSON); err != nil {
			return err
		}
	}
	text := report.Render()
	if out == "" {
		fmt.Print(text)
		return nil
	}
	if err := topicscope.WriteFileAtomic(out, func(w io.Writer) error {
		_, werr := io.WriteString(w, text)
		return werr
	}); err != nil {
		return err
	}
	fmt.Printf("report written to %s\n", out)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "topics-report:", err)
	os.Exit(1)
}
