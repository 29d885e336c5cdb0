// Command topics-monitor implements the continuous monitoring §6 calls
// for: it crawls the same synthetic web at a series of virtual dates and
// charts how Topics adoption evolves — enrolled domains, active calling
// parties, and the share of websites where a call is observed.
//
//	topics-monitor -seed 1 -sites 5000 -from 2023-07-01 -to 2024-03-30 -step 720h
//
// With -tail it instead renders a campaign dashboard from a trace JSONL
// file (written by topics-crawl -trace or topics-report -trace): sites
// done, success rate against the paper's 86.8%, and the stage-clock
// latency breakdown. -follow keeps re-rendering while a crawl appends.
//
//	topics-monitor -tail crawl-traces.jsonl -follow
//
// With -live it renders the paper's headline tables (Table 1, dataset
// overview, the virtual-week trajectory) straight from a campaign
// journal while the crawl runs: the checkpoint index snapshot is
// restored once, then each refresh folds only the newly committed
// records, seeked to via the sparse frame index — O(delta), not
// O(dataset), even on multi-GB files.
//
//	topics-monitor -live crawl.jsonl.gz -seed 1 -sites 50000 -follow
//
// With -checkpoint it renders the durable state of a crash-safe dataset
// journal — committed records, watermark rank, uncommitted tail bytes —
// from the manifest topics-crawl maintains beside the file.
//
//	topics-monitor -checkpoint crawl.jsonl.gz
//
// With -shards it renders a distributed campaign (topics-orch): one row
// per shard from the worker status files beside the shard journals,
// per-shard checkpoint progress, and the campaign-wide metrics
// aggregated by fetching every live worker's /__metrics registry in its
// lossless JSON form and merging them (Registry.Merge is commutative,
// so the aggregate is exactly what one shared registry would hold).
//
//	topics-monitor -shards crawl.jsonl -follow
package main

import (
	"compress/gzip"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"github.com/netmeasure/topicscope"
	"github.com/netmeasure/topicscope/internal/analysis"
	"github.com/netmeasure/topicscope/internal/campaign"
	"github.com/netmeasure/topicscope/internal/obs"
	"github.com/netmeasure/topicscope/internal/orchestrator"
	"github.com/netmeasure/topicscope/internal/vclock"
)

func main() {
	var (
		seed    = flag.Uint64("seed", 1, "world seed")
		sites   = flag.Int("sites", 5000, "number of ranked sites per snapshot")
		workers = flag.Int("workers", 16, "crawl parallelism")
		from    = flag.String("from", "2023-07-01", "first snapshot date (YYYY-MM-DD)")
		to      = flag.String("to", "2024-03-30", "last snapshot date (YYYY-MM-DD)")
		step    = flag.Duration("step", 60*24*time.Hour, "interval between snapshots")
		tail    = flag.String("tail", "", "render a campaign dashboard from this trace JSONL file instead of crawling")
		follow  = flag.Bool("follow", false, "with -tail: re-read and re-render every -every until interrupted")
		every   = flag.Duration("every", 2*time.Second, "with -follow: refresh interval")
		ckpt    = flag.String("checkpoint", "", "render the checkpoint state of this crash-safe dataset journal and exit")
		shards  = flag.String("shards", "", "render a distributed campaign: shard status + aggregated worker /__metrics for this -out path")
		live    = flag.String("live", "", "render Table 1 / figure deltas from this campaign journal while the crawl runs; -seed/-sites must match the campaign")
	)
	flag.Parse()

	if *live != "" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if err := liveDashboard(ctx, *live, *seed, *sites, *follow, *every); err != nil {
			fatal(err)
		}
		return
	}

	if *ckpt != "" {
		if err := renderCheckpoint(*ckpt); err != nil {
			fatal(err)
		}
		return
	}

	if *shards != "" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if err := shardsDashboard(ctx, *shards, *follow, *every); err != nil {
			fatal(err)
		}
		return
	}

	if *tail != "" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if err := tailDashboard(ctx, *tail, *follow, *every); err != nil {
			fatal(err)
		}
		return
	}

	start, err := time.Parse("2006-01-02", *from)
	if err != nil {
		fatal(err)
	}
	end, err := time.Parse("2006-01-02", *to)
	if err != nil {
		fatal(err)
	}
	if !start.Before(end) || *step <= 0 {
		fatal(fmt.Errorf("need from < to and a positive step"))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	adoption := &analysis.Adoption{}
	for date := start; !date.After(end); date = date.Add(*step) {
		results, err := topicscope.Campaign{
			Seed:    *seed,
			Sites:   *sites,
			Workers: *workers,
			Start:   date,
		}.Run(ctx)
		if err != nil {
			fatal(err)
		}
		point := analysis.SnapshotAdoption(results.Analysis, date)
		adoption.Points = append(adoption.Points, point)
		fmt.Fprintf(os.Stderr, "snapshot %s: %d active callers\n",
			date.Format("2006-01-02"), point.ActiveCallers)
	}
	fmt.Print(adoption.Render())
}

// liveDashboard renders the paper's headline tables from a campaign
// journal while the crawl appends to it. The first refresh restores the
// checkpoint index snapshot (<path>.idx) and folds the committed tail;
// every later refresh folds only the records committed since, located
// by the sparse frame index (gzip-member offsets), so a refresh over a
// multi-GB dataset reads the delta, not the file. The attestation sweep
// reruns in-process over the live caller set each refresh — it reaches
// only domains the fold has already seen, exactly like the post-hoc
// sweep over the finished dataset.
func liveDashboard(ctx context.Context, path string, seed uint64, sites int, follow bool, every time.Duration) error {
	env := campaign.Spec{World: topicscope.WorldConfig{Seed: seed, NumSites: sites}}.NewEnv(1, campaign.AllRanks)
	allow := env.Allow
	reg := topicscope.NewMetricsRegistry()

	var idx *topicscope.LiveAnalysisIndex
	var folded int64
	render := func() error {
		m := topicscope.LoadManifest(path)
		if idx == nil {
			liveIn := &topicscope.AnalysisInput{Allowlist: allow, Metrics: reg}
			assembled, st, err := topicscope.LoadLiveAnalysisIndex(path, liveIn)
			if err != nil {
				if !follow {
					return err
				}
				fmt.Printf("topics-monitor — %s: waiting for the journal to appear\n", path)
				return nil
			}
			idx = assembled
			folded = int64(idx.Visits())
			fmt.Fprintf(os.Stderr, "live: assembled %d records (snapshot %d + tail %d), %d journal bytes read\n",
				idx.Visits(), st.SnapshotRecords, st.TailRecords, st.BytesRead)
		} else if m != nil && m.Records > folded {
			// Delta fold: only the records committed since last refresh,
			// seeked to via the frame index.
			st, err := topicscope.ReadRecordRange(path, folded, m.Records, func(v *topicscope.Visit) error {
				idx.Fold(v)
				return nil
			})
			if err != nil {
				return err
			}
			folded += st.Records
			fmt.Fprintf(os.Stderr, "live: folded %d new records (%d journal bytes, indexed seek: %v)\n",
				st.Records, st.BytesRead, st.Indexed)
		}

		recs, err := env.Sweep(ctx, nil, idx.Callers())
		if err != nil {
			return err
		}
		in := &topicscope.AnalysisInput{
			Allowlist:    allow,
			Attestations: topicscope.AttestationIndex(recs),
			Metrics:      reg,
		}
		topicscope.AdoptAnalysisIndex(in, idx.Snapshot(in))

		var b strings.Builder
		fmt.Fprintf(&b, "topics-monitor — %s (live analysis, %d records folded)\n", path, idx.Visits())
		if m != nil {
			if info, err := os.Stat(path); err == nil {
				fmt.Fprintf(&b, "checkpoint: %d records committed, %d uncommitted tail bytes\n",
					m.Records, info.Size()-m.Offset)
			}
		}
		b.WriteString("\n")
		b.WriteString(topicscope.ComputeOverview(in).Render())
		b.WriteString("\n")
		b.WriteString(analysis.ComputeTable1(in).Render())
		if tr := topicscope.ComputeTrajectory(in); len(tr.Rows) > 0 {
			b.WriteString("\n")
			b.WriteString(tr.Render())
		}
		fmt.Print(b.String())
		return nil
	}
	if !follow {
		return render()
	}
	vclock.Poll(ctx, every, func() bool {
		return render() == nil && ctx.Err() == nil
	})
	return nil
}

// tailDashboard folds the trace file into an obs.Summary and renders the
// campaign dashboard; with follow it re-reads on a wall-clock cadence
// (vclock.Poll — the monitor watches a live crawl, so real time is the
// right clock here).
func tailDashboard(ctx context.Context, path string, follow bool, every time.Duration) error {
	render := func() error {
		sum := obs.NewSummary()
		err := foldTraces(path, sum)
		if err != nil {
			if !follow {
				return err
			}
			// A file that doesn't exist yet is normal when following a
			// crawl that hasn't started (shard workers create their
			// journals at staggered times): say so and keep polling
			// instead of rendering a misleading empty dashboard.
			if errors.Is(err, fs.ErrNotExist) {
				fmt.Printf("topics-monitor — %s: waiting for the file to appear\n", path)
				return nil
			}
			// Any other error in follow mode (a decode error on the last
			// line usually means the crawler is mid-write): render what
			// folded and keep going.
		}
		fmt.Print(dashboard(path, sum))
		return nil
	}
	if !follow {
		return render()
	}
	vclock.Poll(ctx, every, func() bool {
		return render() == nil && ctx.Err() == nil
	})
	return nil
}

// foldTraces streams every record of the (possibly gzipped) trace JSONL
// file into the summary.
func foldTraces(path string, sum *obs.Summary) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		zr, err := gzip.NewReader(f)
		if err != nil {
			return err
		}
		defer zr.Close()
		r = zr
	}
	return topicscope.ReadTraces(r, sum.WriteTrace)
}

// paperSuccessRate is the crawl success rate reported by the paper
// (§2.4): 43,396 of the top 50k sites loaded.
const paperSuccessRate = 0.868

func dashboard(path string, s *obs.Summary) string {
	var b strings.Builder
	traces, visits, ok, partial, failed := s.Counts()
	fmt.Fprintf(&b, "topics-monitor — %s\n", path)
	fmt.Fprintf(&b, "traces %d  sites done %d  visits %d (ok %d, partial %d, failed %d)\n",
		traces, s.SiteCount(), visits, ok, partial, failed)
	fmt.Fprintf(&b, "success rate %.1f%%  (paper: %.1f%%, Δ %+.1f pp)\n",
		s.SuccessRate()*100, paperSuccessRate*100, (s.SuccessRate()-paperSuccessRate)*100)
	rows := s.StageBreakdown()
	if len(rows) > 0 {
		fmt.Fprintln(&b, "stage breakdown (stage-clock time):")
		w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "  STAGE\tCOUNT\tTOTAL\tMEAN\tP50\tP99\tP999\tMAX")
		for _, r := range rows {
			fmt.Fprintf(w, "  %s\t%d\t%s\t%s\t%s\t%s\t%s\t%s\n",
				r.Name, r.Count, r.Total, r.Mean, quantileCell(r.P50), quantileCell(r.P99), quantileCell(r.P999), r.Max)
		}
		w.Flush() //nolint:errcheck // strings.Builder cannot fail
	}
	return b.String()
}

// quantileCell renders a stage quantile, or "-" when the summary holds
// no distribution (a StageSummary rebuilt from its serialized form
// carries totals only).
func quantileCell(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return d.String()
}

// renderCheckpoint prints the durable state of a crash-safe dataset
// journal: what the manifest commits to, and how much uncommitted tail
// a resume would replay.
func renderCheckpoint(path string) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	m := topicscope.LoadManifest(path)
	fmt.Printf("journal: %s (%d bytes on disk)\n", path, info.Size())
	if m == nil {
		fmt.Println("checkpoint: no usable manifest — resume falls back to a full salvaging scan")
		return nil
	}
	fmt.Printf("checkpoint: %d records committed through %d bytes (payload crc %08x)\n",
		m.Records, m.Offset, m.PayloadCRC)
	if m.WatermarkRank > 0 {
		fmt.Printf("watermark: rank %d (%s) — every earlier rank is durably recorded\n",
			m.WatermarkRank, m.WatermarkSite)
	}
	fmt.Printf("sites recorded: %d\n", m.Sites)
	if tail := info.Size() - m.Offset; tail > 0 {
		fmt.Printf("uncommitted tail: %d bytes (replayed on resume; torn site groups recrawl)\n", tail)
	} else {
		fmt.Println("uncommitted tail: none — the file is durable end to end")
	}
	return nil
}

// shardsDashboard renders a distributed campaign from the worker
// status files and shard checkpoint manifests beside out's shard
// journals, plus the merged metrics of every worker serving a live
// /__metrics endpoint. With follow it re-renders on a wall-clock
// cadence, tolerating shards whose journals haven't appeared yet.
func shardsDashboard(ctx context.Context, out string, follow bool, every time.Duration) error {
	client := &http.Client{Timeout: 2 * time.Second}
	render := func() error {
		view, err := renderShards(out, client)
		if err != nil {
			if !follow {
				return err
			}
			fmt.Printf("topics-monitor — %s: waiting for shard status files to appear\n", out)
			return nil
		}
		fmt.Print(view)
		return nil
	}
	if !follow {
		return render()
	}
	vclock.Poll(ctx, every, func() bool {
		return render() == nil && ctx.Err() == nil
	})
	return nil
}

func renderShards(out string, client *http.Client) (string, error) {
	first, err := orchestrator.ReadStatus(orchestrator.ShardPath(out, 0))
	if err != nil {
		return "", fmt.Errorf("no shard status beside %s: %w", out, err)
	}
	count := first.Shard.Count

	var b strings.Builder
	fmt.Fprintf(&b, "topics-monitor — %s (%d shards)\n", out, count)
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  SHARD\tRANKS\tSTATE\tPID\tPROGRESS\tMETRICS")
	agg := obs.NewRegistry()
	live := 0
	for i := 0; i < count; i++ {
		path := orchestrator.ShardPath(out, i)
		st, err := orchestrator.ReadStatus(path)
		if err != nil {
			fmt.Fprintf(w, "  %d\t?\tno status yet\t-\t-\t-\n", i)
			continue
		}
		state := st.State
		if st.Error != "" {
			state += ": " + st.Error
		}
		progress := "-"
		if m := topicscope.LoadManifest(path); m != nil {
			done := m.WatermarkRank - st.Shard.FromRank + 1
			if done < 0 {
				done = 0
			}
			progress = fmt.Sprintf("%d/%d sites", done, st.Shard.Sites())
		}
		metrics := "-"
		if st.MetricsURL != "" {
			if reg, err := fetchRegistry(client, st.MetricsURL); err != nil {
				metrics = "offline"
			} else {
				agg.Merge(reg)
				live++
				metrics = "live"
			}
		}
		fmt.Fprintf(w, "  %d\t[%d,%d]\t%s\t%d\t%s\t%s\n",
			i, st.Shard.FromRank, st.Shard.ToRank, state, st.PID, progress, metrics)
	}
	w.Flush() //nolint:errcheck // strings.Builder cannot fail

	if live > 0 {
		fmt.Fprintf(&b, "aggregated worker metrics (%d live registries, commutative merge):\n", live)
		agg.WriteProm(&b) //nolint:errcheck // strings.Builder cannot fail
		writeLatencyTable(&b, agg.Snapshot())
	}
	return b.String(), nil
}

// writeLatencyTable renders the campaign-wide latency quantiles from
// the merged registry snapshot — the p50/p99/p999 a single shared
// registry would report, because histogram buckets merge exactly.
func writeLatencyTable(b *strings.Builder, snap obs.Snapshot) {
	if len(snap.Histograms) == 0 {
		return
	}
	fmt.Fprintln(b, "campaign latency quantiles (merged histograms):")
	w := tabwriter.NewWriter(b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  HISTOGRAM\tCOUNT\tP50\tP99\tP999\tMAX")
	for _, h := range snap.Histograms {
		fmt.Fprintf(w, "  %s\t%d\t%s\t%s\t%s\t%s\n",
			h.Name, h.Count,
			time.Duration(h.P50NS), time.Duration(h.P99NS), time.Duration(h.P999NS), time.Duration(h.MaxNS))
	}
	w.Flush() //nolint:errcheck // strings.Builder cannot fail
}

// fetchRegistry pulls a worker's registry in the lossless JSON wire
// form — the Prometheus text rendering would drop histogram buckets and
// make the merge lossy.
func fetchRegistry(client *http.Client, url string) (*obs.Registry, error) {
	resp, err := client.Get(url + "?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics endpoint returned %s", resp.Status)
	}
	return obs.ReadRegistry(resp.Body)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "topics-monitor:", err)
	os.Exit(1)
}
