package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"

	"github.com/netmeasure/topicscope"
	"github.com/netmeasure/topicscope/internal/analysis"
	"github.com/netmeasure/topicscope/internal/attestation"
	"github.com/netmeasure/topicscope/internal/crawler"
	"github.com/netmeasure/topicscope/internal/dataset"
	"github.com/netmeasure/topicscope/internal/durable"
	"github.com/netmeasure/topicscope/internal/obs"
	"github.com/netmeasure/topicscope/internal/webserver"
	"github.com/netmeasure/topicscope/internal/webworld"
)

const (
	journalName    = "crawl.jsonl.gz"
	reportJSONName = "report.json"
	reportTextName = "report.txt"
	workers        = 2
)

// runCampaign measures one Campaign per operation: the whole study
// (world, serving, crawl, attestation sweep, analysis) plus the report
// write, through the journal and its live sink when journaled.
func runCampaign(r *runner, sites int, journaled bool) error {
	ctx := context.Background()
	wcfg := webworld.Config{Seed: r.cfg.seed, NumSites: sites}
	world := r.setupWorld(wcfg)

	var last *topicscope.Results
	op := func(t *tracer, dir string) (map[string]float64, error) {
		if t != nil {
			return tracedCampaign(ctx, t, wcfg, dir, journaled)
		}
		c := topicscope.Campaign{Seed: r.cfg.seed, Sites: sites, Workers: workers}
		if journaled {
			c.OutputPath = filepath.Join(dir, journalName)
		}
		res, err := c.Run(ctx)
		if err != nil {
			return nil, err
		}
		last = res
		return nil, writeReport(nil, nil, dir, res.Report)
	}
	var firstReport, firstJournal string
	check := func(i int, dir string) error {
		report, err := fileSHA(filepath.Join(dir, reportJSONName))
		if err != nil {
			return err
		}
		var journal string
		if journaled {
			if journal, err = fileSHA(filepath.Join(dir, journalName)); err != nil {
				return err
			}
		}
		if firstReport != "" {
			if report != firstReport || journal != firstJournal {
				return fmt.Errorf("artifacts differ from the first operation's")
			}
			return nil
		}
		firstReport, firstJournal = report, journal
		fmt.Printf("report sha256 %s\n", report)
		if journaled {
			return checkJournaled(ctx, world, dir, last)
		}
		return checkFreshIndex(world, dir, last)
	}
	return r.measureOps(op, check)
}

// writeReport renders the report and writes its JSON and text
// atomically through fsys (nil is the OS filesystem, as
// topicscope.WriteFileAtomic uses).
func writeReport(t *tracer, fsys durable.FS, dir string, report *topicscope.Report) error {
	var js bytes.Buffer
	var text string
	err := t.do("analysis.render", func() (int64, error) {
		text = report.Render()
		return 0, report.WriteJSON(&js)
	})
	if err != nil {
		return err
	}
	return t.do("report.write", func() (int64, error) {
		err := durable.WriteFileAtomicFS(fsys, filepath.Join(dir, reportJSONName), func(w io.Writer) error {
			_, err := w.Write(js.Bytes())
			return err
		})
		if err != nil {
			return 0, err
		}
		return 0, durable.WriteFileAtomicFS(fsys, filepath.Join(dir, reportTextName), func(w io.Writer) error {
			_, err := io.WriteString(w, text)
			return err
		})
	})
}

// checkJournaled verifies a journaled campaign: the journal holds one
// record per visit, and the live report over it equals the campaign's
// report byte for byte.
func checkJournaled(ctx context.Context, world *webworld.World, dir string, res *topicscope.Results) error {
	path := filepath.Join(dir, journalName)
	records := 0
	if _, err := topicscope.ReadRecordRange(path, 0, -1, func(*topicscope.Visit) error { records++; return nil }); err != nil {
		return err
	}
	if records != res.Data.Len() {
		return fmt.Errorf("journal holds %d records, campaign visited %d", records, res.Data.Len())
	}
	liveDir := filepath.Join(filepath.Dir(dir), "live-check")
	if err := os.MkdirAll(liveDir, 0o755); err != nil {
		return err
	}
	if _, err := liveReport(ctx, nil, world, path, liveDir); err != nil {
		return err
	}
	return sameFile(filepath.Join(dir, reportJSONName), filepath.Join(liveDir, reportJSONName))
}

// checkFreshIndex verifies an in-memory campaign: a report over a
// freshly built index of its dataset equals the campaign's report.
func checkFreshIndex(world *webworld.World, dir string, res *topicscope.Results) error {
	in := &topicscope.AnalysisInput{
		Data:         res.Data,
		Allowlist:    topicscope.NewAllowlist(world.Catalog.AllowedDomains()...),
		Attestations: topicscope.AttestationIndex(res.Attestations),
	}
	var fresh bytes.Buffer
	if err := topicscope.Analyze(in).WriteJSON(&fresh); err != nil {
		return err
	}
	got, err := os.ReadFile(filepath.Join(dir, reportJSONName))
	if err != nil {
		return err
	}
	if !bytes.Equal(got, fresh.Bytes()) {
		return fmt.Errorf("fresh-index report differs from the campaign's")
	}
	return nil
}

// tracedCampaign is Campaign.Run assembled from the layer packages with
// a timing wrapper at every seam. It returns the crawl's counts.
func tracedCampaign(ctx context.Context, t *tracer, wcfg webworld.Config, dir string, journaled bool) (map[string]float64, error) {
	var (
		world  *webworld.World
		allow  *attestation.Allowlist
		client *http.Client
	)
	_ = t.do("webworld.generate", func() (int64, error) {
		world = webworld.Generate(wcfg)
		return 0, nil
	})
	_ = t.do("webserver.new", func() (int64, error) {
		allow = attestation.NewAllowlist(world.Catalog.AllowedDomains()...)
		client = webserver.New(world, nil).Client()
		client.Transport = tracedRT{t: t, next: client.Transport}
		return 0, nil
	})
	reg := obs.NewRegistry()
	ccfg := crawler.Config{
		Client:             client,
		ReferenceAllowlist: allow,
		Workers:            workers,
		Collect:            true,
		Metrics:            reg,
		Traces:             obs.Tee{obs.NewSummary()},
	}
	tfs := tracedFS{t: t, fs: durable.OS}
	var journal *dataset.JournalWriter
	if journaled {
		path := filepath.Join(dir, journalName)
		err := t.do("dataset.create", func() (int64, error) {
			liveIn := &analysis.Input{Allowlist: allow, Metrics: reg, FS: tfs}
			var err error
			journal, err = dataset.CreateJournal(path, dataset.JournalOptions{
				Metrics:  reg,
				Observer: tracedObserver{t: t, o: analysis.NewLiveSink(path, liveIn)},
				Durable:  durable.Options{FS: tfs},
			})
			return 0, err
		})
		if err != nil {
			return nil, err
		}
		ccfg.Writer = tracedWriter{t: t, w: journal}
	}
	cr := crawler.New(ccfg)
	var res *crawler.Result
	err := t.do("crawler.run", func() (int64, error) {
		var err error
		res, err = cr.Run(ctx, world.List())
		return 0, err
	})
	if journal != nil {
		if err != nil {
			journal.Abort()
			return nil, err
		}
		err = t.do("dataset.close", func() (int64, error) { return 0, journal.Close() })
	}
	if err != nil {
		return nil, err
	}
	var recs []dataset.AttestationRecord
	_ = t.do("crawler.attest_sweep", func() (int64, error) {
		domains := append(allow.Domains(), crawler.CallerDomains(res.Data)...)
		recs = cr.CheckAttestations(ctx, domains)
		return int64(len(domains)), nil
	})
	in := &analysis.Input{
		Data:         res.Data,
		Allowlist:    allow,
		Attestations: dataset.AttestationIndex(recs),
		Metrics:      reg,
	}
	_ = t.do("analysis.index_build", func() (int64, error) { in.Index(); return 0, nil })
	var report *analysis.Report
	_ = t.do("analysis.sections", func() (int64, error) { report = analysis.Run(in); return 0, nil })
	if err := writeReport(t, tfs, dir, report); err != nil {
		return nil, err
	}
	return map[string]float64{
		"crawler.visits":  float64(res.Data.Len()),
		"crawler.retries": float64(res.Stats.Retries),
	}, nil
}

// sameArtifacts checks that two directories hold byte-identical regular
// files under the same names.
func sameArtifacts(a, b string) error {
	names := func(dir string) ([]string, error) {
		es, err := os.ReadDir(dir)
		var out []string
		for _, e := range es {
			if e.Type().IsRegular() {
				out = append(out, e.Name())
			}
		}
		return out, err
	}
	na, err := names(a)
	if err != nil {
		return err
	}
	nb, err := names(b)
	if err != nil {
		return err
	}
	if fmt.Sprint(na) != fmt.Sprint(nb) {
		return fmt.Errorf("traced artifacts %v, untraced %v", nb, na)
	}
	for _, name := range na {
		if err := sameFile(filepath.Join(a, name), filepath.Join(b, name)); err != nil {
			return err
		}
	}
	return nil
}

func sameFile(a, b string) error {
	da, err := os.ReadFile(a)
	if err != nil {
		return err
	}
	db, err := os.ReadFile(b)
	if err != nil {
		return err
	}
	if !bytes.Equal(da, db) {
		return fmt.Errorf("%s and %s differ", a, b)
	}
	return nil
}
