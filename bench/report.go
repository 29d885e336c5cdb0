package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"github.com/netmeasure/topicscope"
	"github.com/netmeasure/topicscope/internal/durable"
	"github.com/netmeasure/topicscope/internal/webworld"
)

const (
	attestName = "attest.jsonl"
	allowName  = "allow.dat"
)

// runReport measures rendering the report from a finished campaign
// journal: the topics-report -live sequence (live) or the
// topics-analyze sequence (post-hoc). Set-up crawls the journal once,
// untimed, and renders both paths once as a warm-up; both must equal
// the campaign's own report, and so must every timed operation.
func runReport(r *runner, live bool) error {
	ctx := context.Background()
	world := r.setupWorld(webworld.Config{Seed: r.cfg.seed, NumSites: r.size.fixtureSites})
	fx := filepath.Join(r.dir, "fixture")
	if err := makeFixture(ctx, world, r.cfg.seed, r.size.fixtureSites, r.size.fixtureCheckpoint, fx); err != nil {
		return err
	}
	journal := filepath.Join(fx, journalName)
	want := filepath.Join(fx, reportJSONName)
	if sha, err := fileSHA(want); err == nil {
		fmt.Printf("report sha256 %s\n", sha)
	}

	render := func(live bool, t *tracer, dir string) (map[string]float64, error) {
		if live {
			return liveReport(ctx, t, world, journal, dir)
		}
		return posthocReport(t, fx, dir)
	}
	for _, warmLive := range []bool{true, false} {
		dir := filepath.Join(r.dir, fmt.Sprintf("warmup-live-%v", warmLive))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		_, err := render(warmLive, nil, dir)
		if err == nil {
			err = sameFile(want, filepath.Join(dir, reportJSONName))
		}
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	op := func(t *tracer, dir string) (map[string]float64, error) { return render(live, t, dir) }
	return r.measureOps(op, func(_ int, dir string) error {
		return sameFile(want, filepath.Join(dir, reportJSONName))
	})
}

// makeFixture crawls the journal the report workloads read, with the
// attestation records and allow-list topics-crawl writes beside it,
// and the campaign's own report as the reference.
func makeFixture(ctx context.Context, world *webworld.World, seed uint64, sites, every int, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	res, err := topicscope.Campaign{
		Seed: seed, Sites: sites, Workers: workers,
		OutputPath:      filepath.Join(dir, journalName),
		CheckpointEvery: every,
	}.Run(ctx)
	if err != nil {
		return fmt.Errorf("fixture crawl: %w", err)
	}
	if err := topicscope.SaveAttestations(filepath.Join(dir, attestName), res.Attestations); err != nil {
		return err
	}
	allow := topicscope.NewAllowlist(world.Catalog.AllowedDomains()...)
	if err := topicscope.SaveAllowlist(filepath.Join(dir, allowName), allow); err != nil {
		return err
	}
	return writeReport(nil, nil, dir, res.Report)
}

// liveReport is topics-report -live: restore the journal's index
// snapshot and fold its tail, sweep the attestations of the live
// caller set against the served world, adopt the finalized index,
// analyze, and write the report. World generation is set-up. A non-nil
// tracer times each phase and the HTTP and filesystem seams.
func liveReport(ctx context.Context, t *tracer, world *webworld.World, journal, dir string) (map[string]float64, error) {
	allow := topicscope.NewAllowlist(world.Catalog.AllowedDomains()...)
	in := &topicscope.AnalysisInput{Allowlist: allow, Metrics: topicscope.NewMetricsRegistry()}
	var fsys durable.FS
	if t != nil {
		fsys = tracedFS{t: t, fs: durable.OS}
		in.FS = fsys
	}
	var live *topicscope.LiveAnalysisIndex
	err := t.do("analysis.live_restore", func() (int64, error) {
		l, st, err := topicscope.LoadLiveAnalysisIndex(journal, in)
		if err != nil {
			return 0, err
		}
		live = l
		return st.BytesRead, nil
	})
	if err != nil {
		return nil, err
	}
	client := topicscope.NewServer(world, nil).Client()
	if t != nil {
		client.Transport = tracedRT{t: t, next: client.Transport}
	}
	cr := topicscope.NewCrawler(topicscope.CrawlerConfig{
		Client:             client,
		ReferenceAllowlist: allow,
		Workers:            workers,
		Metrics:            in.Metrics,
	})
	_ = t.do("crawler.attest_sweep", func() (int64, error) {
		domains := append(allow.Domains(), live.Callers()...)
		in.Attestations = topicscope.AttestationIndex(cr.CheckAttestations(ctx, domains))
		return int64(len(domains)), nil
	})
	_ = t.do("analysis.index_build", func() (int64, error) {
		topicscope.AdoptAnalysisIndex(in, live.Snapshot(in))
		return 0, nil
	})
	var report *topicscope.Report
	_ = t.do("analysis.sections", func() (int64, error) { report = topicscope.Analyze(in); return 0, nil })
	return nil, writeReport(t, fsys, dir, report)
}

// posthocReport is topics-analyze: decode the dataset, attestations
// and allow-list, build the index in one pass, analyze, and write the
// report.
func posthocReport(t *tracer, fx, dir string) (map[string]float64, error) {
	var in *topicscope.AnalysisInput
	err := t.do("dataset.load", func() (int64, error) {
		data, err := topicscope.LoadDataset(filepath.Join(fx, journalName))
		if err != nil {
			return 0, err
		}
		recs, err := topicscope.LoadAttestations(filepath.Join(fx, attestName))
		if err != nil {
			return 0, err
		}
		allow, err := topicscope.LoadAllowlist(filepath.Join(fx, allowName))
		if err != nil {
			return 0, err
		}
		in = &topicscope.AnalysisInput{Data: data, Allowlist: allow, Attestations: topicscope.AttestationIndex(recs)}
		return int64(data.Len()), nil
	})
	if err != nil {
		return nil, err
	}
	_ = t.do("analysis.index_build", func() (int64, error) { topicscope.BuildAnalysisIndex(in); return 0, nil })
	var report *topicscope.Report
	_ = t.do("analysis.sections", func() (int64, error) { report = topicscope.Analyze(in); return 0, nil })
	var fsys durable.FS
	if t != nil {
		fsys = tracedFS{t: t, fs: durable.OS}
	}
	return nil, writeReport(t, fsys, dir, report)
}
