// Command topics-fsck verifies — and with -repair, self-heals — the
// on-disk artifacts of a crawl campaign: the journal's framed records,
// the checkpoint manifest, the sparse frame index, the live analysis
// snapshot, stray atomic-write temps and the report JSON, across every
// shard in one pass.
//
// Damage is quarantined to whole-site-group rank windows (checkpoint
// boundaries always coincide with completed site groups) and the repair
// plan is executed as deterministic rank-window recrawls: every visit
// record is a pure function of its rank and the campaign parameters, so
// a repaired campaign is byte-identical to one that never took a fault.
// The campaign flags (-seed, -sites, -chaos, ...) must therefore match
// the original crawl exactly.
//
//	topics-fsck -data crawl.jsonl -seed 1 -sites 50000          # verify, exit 0 clean / 1 dirty
//	topics-fsck -data crawl.jsonl -shards 8 ...                 # verify all 8 shard journals
//	topics-fsck -data crawl.jsonl -repair ...                   # verify, then heal in place
//	topics-fsck -data crawl.jsonl -json report.json ...         # machine-readable verify report
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/netmeasure/topicscope/internal/campaign"
	"github.com/netmeasure/topicscope/internal/durable"
	"github.com/netmeasure/topicscope/internal/fsck"
	"github.com/netmeasure/topicscope/internal/obs"
	"github.com/netmeasure/topicscope/internal/orchestrator"
	"github.com/netmeasure/topicscope/internal/webworld"
)

func main() {
	var (
		data      = flag.String("data", "crawl.jsonl", "campaign dataset path (the journal, or the <out> the shards hang off)")
		seed      = flag.Uint64("seed", 1, "world seed the campaign crawled with")
		sites     = flag.Int("sites", 50000, "number of ranked sites the campaign covered")
		shards    = flag.Int("shards", 0, "shard count of a distributed campaign; 0 = single journal at -data")
		workers   = flag.Int("workers", 16, "recrawl parallelism for -repair")
		enforce   = flag.Bool("enforce", false, "campaign ran the healthy-gate ablation")
		useChaos  = flag.Bool("chaos", false, "campaign ran with the client-side fault profile")
		chaosSeed = flag.Uint64("chaos-seed", 1, "campaign's fault-injection seed")
		retries   = flag.Int("retries", 2, "campaign's extra attempts per navigation/fetch; 0 disables retries")
		budgetMS  = flag.Int("visit-budget-ms", 0, "campaign's per-visit virtual-clock budget")
		ckptEvery = flag.Int("checkpoint-every", 0, "checkpoint cadence for repaired journals (0 = durable default)")
		reportIn  = flag.String("report", "", "campaign report JSON artifact to verify (and regenerate under -repair)")
		jsonOut   = flag.String("json", "", "write the machine-readable verify report here ('-' = stdout)")
		repair    = flag.Bool("repair", false, "execute the repair plan: truncate, splice salvage, recrawl quarantined rank windows")
		quiet     = flag.Bool("quiet", false, "suppress the human-readable summary")
	)
	flag.Parse()

	camp := &fsck.Campaign{
		Spec: campaign.Spec{
			World:   webworld.Config{Seed: *seed, NumSites: *sites},
			Enforce: *enforce, Chaos: *useChaos, ChaosSeed: *chaosSeed,
			Attempts: campaign.Attempts(*retries),
		},
		VisitBudget:     time.Duration(*budgetMS) * time.Millisecond,
		Workers:         *workers,
		CheckpointEvery: *ckptEvery,
		Metrics:         obs.NewRegistry(),
	}

	paths := fsck.CampaignPaths{Report: *reportIn}
	if *shards > 0 {
		specs, err := orchestrator.Partition(*sites, *shards)
		if err != nil {
			fatal(err)
		}
		for _, spec := range specs {
			paths.Journals = append(paths.Journals, orchestrator.ShardPath(*data, spec.Index))
			paths.Windows = append(paths.Windows, fsck.Window{From: spec.FromRank, To: spec.ToRank})
			paths.Shards = append(paths.Shards, spec.Info())
		}
	} else {
		paths.Journals = []string{*data}
		paths.Windows = []fsck.Window{{From: 1, To: *sites}}
	}

	var rep *fsck.Report
	var err error
	if *repair {
		var results []*fsck.RepairResult
		rep, results, err = camp.RepairCampaign(context.Background(), paths)
		if err != nil {
			fatal(err)
		}
		if !*quiet {
			for i, res := range results {
				if res.Recrawled == 0 && res.Spliced == 0 && len(res.Rewrote) == 0 {
					continue
				}
				fmt.Printf("repaired %s: %d ranks recrawled, %d groups spliced, rewrote %v\n",
					paths.Journals[i], res.Recrawled, res.Spliced, res.Rewrote)
			}
		}
	} else {
		rep, _, err = camp.Verify(context.Background(), paths)
		if err != nil {
			fatal(err)
		}
	}

	if *jsonOut != "" {
		if *jsonOut == "-" {
			if err := rep.Encode(os.Stdout); err != nil {
				fatal(err)
			}
		} else if err := durable.WriteFileAtomic(*jsonOut, rep.Encode); err != nil {
			fatal(err)
		}
	}
	if !*quiet {
		printSummary(rep)
	}
	if *repair {
		// The exit code reports the post-repair state, not the damage the
		// verify found: re-verify read-only.
		clean, _, err := camp.Verify(context.Background(), paths)
		if err != nil {
			fatal(err)
		}
		if !clean.Clean {
			fmt.Fprintln(os.Stderr, "topics-fsck: repair left findings behind")
			os.Exit(1)
		}
		return
	}
	if !rep.Clean {
		os.Exit(1)
	}
}

func printSummary(rep *fsck.Report) {
	for _, j := range rep.Journals {
		state := "clean"
		if !j.Clean {
			state = fmt.Sprintf("%d findings, %d repair windows", len(j.Findings), len(j.Repair))
		}
		fmt.Printf("%s: ranks [%d,%d], %d records, %d sites — %s\n",
			j.Journal, j.FromRank, j.ToRank, j.Records, j.Sites, state)
		for _, f := range j.Findings {
			fmt.Printf("  %s: %s %s\n", f.Artifact, f.Code, f.Detail)
		}
		for _, w := range j.Repair {
			fmt.Printf("  recrawl ranks [%d,%d]\n", w.From, w.To)
		}
	}
	for _, f := range rep.Findings {
		fmt.Printf("%s: %s %s\n", f.Artifact, f.Code, f.Detail)
	}
	if rep.Clean {
		fmt.Println("campaign clean")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "topics-fsck:", err)
	os.Exit(1)
}
