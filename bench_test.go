package topicscope_test

// The benchmark harness regenerates every table and figure of the paper
// (see DESIGN.md's per-experiment index): each BenchmarkTable1/Figure*
// measures recomputing that experiment over a shared crawl fixture and
// reports the experiment's headline numbers as custom metrics, so
// `go test -bench=. -benchmem` doubles as the reproduction run at bench
// scale. EXPERIMENTS.md records the full 50k-site numbers.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/netmeasure/topicscope"
	"github.com/netmeasure/topicscope/internal/analysis"
	"github.com/netmeasure/topicscope/internal/dataset"
)

const benchSites = 3000

var (
	benchOnce sync.Once
	benchIn   *topicscope.AnalysisInput
	benchRes  *topicscope.Results
)

func benchInput(b *testing.B) (*topicscope.AnalysisInput, *topicscope.Results) {
	b.Helper()
	benchOnce.Do(func() {
		res, err := topicscope.Campaign{Seed: 7, Sites: benchSites, Workers: 16}.Run(context.Background())
		if err != nil {
			panic(err)
		}
		benchRes = res
		benchIn = &topicscope.AnalysisInput{
			Data:         res.Data,
			Allowlist:    topicscope.NewAllowlist(res.World.Catalog.AllowedDomains()...),
			Attestations: topicscope.AttestationIndex(res.Attestations),
		}
	})
	return benchIn, benchRes
}

// BenchmarkDatasetOverview regenerates experiment D1 (§2.4).
func BenchmarkDatasetOverview(b *testing.B) {
	in, _ := benchInput(b)
	b.ResetTimer()
	var o *analysis.Overview
	for i := 0; i < b.N; i++ {
		o = analysis.ComputeOverview(in)
	}
	b.ReportMetric(float64(o.Visited), "sites_visited")
	b.ReportMetric(o.AcceptShare*100, "accept_pct")
	b.ReportMetric(o.LegitCallShare*100, "legit_call_pct")
	b.ReportMetric(float64(o.UniqueThirdParties), "third_parties")
}

// BenchmarkTable1 regenerates Table 1 (experiment T1).
func BenchmarkTable1(b *testing.B) {
	in, _ := benchInput(b)
	b.ResetTimer()
	var t1 *analysis.Table1
	for i := 0; i < b.N; i++ {
		t1 = analysis.ComputeTable1(in)
	}
	b.ReportMetric(float64(t1.Allowed), "allowed")
	b.ReportMetric(float64(t1.AAAllowedAttested), "daa_aa_callers")
	b.ReportMetric(float64(t1.AANotAllowed), "daa_anomalous")
	b.ReportMetric(float64(t1.BAAllowedAttested), "dba_questionable")
	b.ReportMetric(float64(t1.BANotAllowed), "dba_not_allowed")
}

// BenchmarkFigure2 regenerates Figure 2 (CP presence vs calls).
func BenchmarkFigure2(b *testing.B) {
	in, _ := benchInput(b)
	b.ResetTimer()
	var f *analysis.Figure2
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeFigure2(in, 15)
	}
	if len(f.Rows) > 0 {
		b.ReportMetric(float64(f.Rows[0].Present), "top_cp_presence")
	}
}

// BenchmarkFigure3 regenerates Figure 3 (A/B enabled rates).
func BenchmarkFigure3(b *testing.B) {
	in, _ := benchInput(b)
	b.ResetTimer()
	var f *analysis.Figure3
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeFigure3(in, 12, 15)
	}
	b.ReportMetric(f.ClusteredShare()*100, "clustered_pct")
}

// BenchmarkAnomaly regenerates the §4 anomalous-usage analysis (A1).
func BenchmarkAnomaly(b *testing.B) {
	in, _ := benchInput(b)
	b.ResetTimer()
	var a *analysis.Anomaly
	for i := 0; i < b.N; i++ {
		a = analysis.ComputeAnomaly(in)
	}
	b.ReportMetric(float64(a.UniqueCPs), "anomalous_cps")
	b.ReportMetric(a.SameSecondLevelShare*100, "same_sld_pct")
	b.ReportMetric(a.GTMShare*100, "gtm_pct")
}

// BenchmarkFigure5 regenerates Figure 5 (questionable calls).
func BenchmarkFigure5(b *testing.B) {
	in, _ := benchInput(b)
	b.ResetTimer()
	var f *analysis.Figure5
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeFigure5(in, 15)
	}
	b.ReportMetric(float64(f.TotalQuestionableCPs), "questionable_cps")
}

// BenchmarkFigure6 regenerates Figure 6 (TLD geography).
func BenchmarkFigure6(b *testing.B) {
	in, _ := benchInput(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.ComputeFigure6(in, []string{"yandex.com", "criteo.com", "taboola.com", "openx.net"})
	}
}

// BenchmarkFigure7 regenerates Figure 7 (CMP probabilities).
func BenchmarkFigure7(b *testing.B) {
	in, _ := benchInput(b)
	b.ResetTimer()
	var f *analysis.Figure7
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeFigure7(in)
	}
	b.ReportMetric(f.OverRepresentation("HubSpot"), "hubspot_over_rep")
	b.ReportMetric(f.AvgQuestionableRate*100, "avg_questionable_pct")
}

// BenchmarkEnrolment regenerates the §3 enrolment timeline (E1).
func BenchmarkEnrolment(b *testing.B) {
	in, _ := benchInput(b)
	b.ResetTimer()
	var e *analysis.Enrolment
	for i := 0; i < b.N; i++ {
		e = analysis.ComputeEnrolment(in)
	}
	b.ReportMetric(e.MonthlyPace(), "enrolments_per_month")
}

// BenchmarkIndexBuild measures the tentpole itself: one parallel sharded
// pass aggregating the whole dataset into the analysis index (interned
// hostnames, per-phase call/presence sets, every precomputed section).
// Every Compute* above amortizes this cost; here it is paid per
// iteration on a fresh Input.
func BenchmarkIndexBuild(b *testing.B) {
	in, _ := benchInput(b)
	b.ResetTimer()
	var idx *analysis.Index
	for i := 0; i < b.N; i++ {
		fresh := &topicscope.AnalysisInput{
			Data:         in.Data,
			Allowlist:    in.Allowlist,
			Attestations: in.Attestations,
		}
		idx = analysis.BuildIndex(fresh)
	}
	b.ReportMetric(float64(idx.Hosts()), "distinct_hosts")
	b.ReportMetric(float64(len(in.Data.Visits)), "visits")
}

// BenchmarkLiveIndexRestore measures the read side of the live report
// (topics-report -live): restoring a finished journaled campaign's
// `.idx` snapshot through LoadLiveAnalysisIndex. The final checkpoint
// committed every record, so there is no journal tail to fold and the
// whole cost is reading and decoding the snapshot.
func BenchmarkLiveIndexRestore(b *testing.B) {
	path, in := benchJournal(b)
	b.ResetTimer()
	var live *topicscope.LiveAnalysisIndex
	for i := 0; i < b.N; i++ {
		var st *topicscope.LiveAnalysisStats
		var err error
		if live, st, err = topicscope.LoadLiveAnalysisIndex(path, in); err != nil {
			b.Fatal(err)
		}
		if !st.SnapshotRestored || st.TailRecords != 0 {
			b.Fatalf("restore stats %+v, want the snapshot and no tail", st)
		}
	}
	b.ReportMetric(float64(live.Visits()), "visits")
}

// benchJournal runs a finished 1,000-site journaled campaign (default
// checkpoint cadence, so its .fidx marks a gzip member every 25 sites)
// and returns the journal path and an input carrying its allow-list.
func benchJournal(b *testing.B) (string, *topicscope.AnalysisInput) {
	b.Helper()
	path := filepath.Join(b.TempDir(), "crawl.jsonl.gz")
	res, err := topicscope.Campaign{Seed: 7, Sites: 1000, Workers: 16, OutputPath: path}.Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	return path, &topicscope.AnalysisInput{Allowlist: topicscope.NewAllowlist(res.World.Catalog.AllowedDomains()...)}
}

// BenchmarkLoadDataset measures topics-analyze's decode half: LoadDataset
// over a finished journal, read as .fidx member ranges in parallel.
func BenchmarkLoadDataset(b *testing.B) {
	path, _ := benchJournal(b)
	b.ResetTimer()
	var data *topicscope.Dataset
	for i := 0; i < b.N; i++ {
		var err error
		if data, err = topicscope.LoadDataset(path); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(data.Len()), "visits")
}

// BenchmarkJournalFold measures the journal-to-index path without a
// snapshot: LoadLiveAnalysisIndex with the .idx deleted folds every
// record of the journal, one .fidx member range per CPU.
func BenchmarkJournalFold(b *testing.B) {
	path, in := benchJournal(b)
	if err := os.Remove(analysis.IndexSnapshotPath(path)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var live *topicscope.LiveAnalysisIndex
	for i := 0; i < b.N; i++ {
		var st *topicscope.LiveAnalysisStats
		var err error
		if live, st, err = topicscope.LoadLiveAnalysisIndex(path, in); err != nil {
			b.Fatal(err)
		}
		if st.SnapshotRestored || st.TailRecords != int64(live.Visits()) {
			b.Fatalf("fold stats %+v, want every record folded from the journal", st)
		}
	}
	b.ReportMetric(float64(live.Visits()), "visits")
}

// BenchmarkFullReport measures every experiment end to end on a fresh
// Input: one index build plus the concurrent section fan-out — the cost
// topics-analyze pays after loading a dataset.
func BenchmarkFullReport(b *testing.B) {
	in, _ := benchInput(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := &topicscope.AnalysisInput{
			Data:         in.Data,
			Allowlist:    in.Allowlist,
			Attestations: in.Attestations,
		}
		if topicscope.Analyze(fresh) == nil {
			b.Fatal("nil report")
		}
	}
}

// BenchmarkABTestAlternation regenerates experiment S1: repeated-visit
// ON/OFF series per (CP, site) across A/B slots.
func BenchmarkABTestAlternation(b *testing.B) {
	_, res := benchInput(b)
	p, _ := res.World.Catalog.ByDomain("criteo.com")
	start := time.Date(2024, 3, 30, 0, 0, 0, 0, time.UTC)
	series := make([]bool, 240)
	b.ResetTimer()
	periodic := 0
	for i := 0; i < b.N; i++ {
		site := res.World.Sites[i%1000].Domain
		for j := range series {
			series[j] = p.EnabledOn(site, start.Add(time.Duration(j)*2*time.Hour))
		}
		if topicscope.AnalyzeAlternation(series).Periodic() {
			periodic++
		}
	}
	b.ReportMetric(float64(periodic)/float64(b.N)*100, "periodic_pct")
}

// BenchmarkFullCampaign measures the end-to-end study at a small scale:
// world generation, double crawl, attestation checks and analysis.
func BenchmarkFullCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := topicscope.Campaign{Seed: uint64(i + 1), Sites: 300, Workers: 8}.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrawlChaos measures the fault-injected campaign (D1r): the
// default retry policy against a retry-free crawl of the same world,
// reporting the visit-success rate each buys.
func BenchmarkCrawlChaos(b *testing.B) {
	for _, bc := range []struct {
		name    string
		retries int
	}{
		{"retries=default", 0},
		{"retries=off", -1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var last *topicscope.Results
			for i := 0; i < b.N; i++ {
				res, err := topicscope.Campaign{
					Seed: 7, Sites: 600, Workers: 16,
					Chaos: true, ChaosSeed: 1, Retries: bc.retries,
				}.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(float64(last.Stats.Succeeded)/float64(last.Stats.Attempted)*100, "success_pct")
			b.ReportMetric(float64(last.Stats.Retries), "retries")
			b.ReportMetric(float64(last.Stats.PartialVisits), "partial_visits")
		})
	}
}

// BenchmarkWorldGeneration measures the synthetic-web generator.
func BenchmarkWorldGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		topicscope.GenerateWorld(topicscope.WorldConfig{Seed: uint64(i + 1), NumSites: 5000})
	}
}

// BenchmarkPageLoad measures one instrumented page load through the full
// HTTP + HTML + script pipeline.
func BenchmarkPageLoad(b *testing.B) {
	_, res := benchInput(b)
	server := topicscope.NewServer(res.World, nil)
	allow := topicscope.NewAllowlist(res.World.Catalog.AllowedDomains()...)
	br := topicscope.NewBrowser(topicscope.BrowserConfig{
		Client:             server.Client(),
		Gate:               topicscope.NewCorruptedGate(),
		ReferenceAllowlist: allow,
	})
	ctx := context.Background()
	// Preselect reachable, non-redirecting sites.
	var sites []string
	for _, s := range res.World.Sites {
		if s.Reachable && s.RedirectTo == "" {
			sites = append(sites, s.Domain)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := br.LoadPage(ctx, sites[i%len(sites)]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEngine builds a warmed Topics engine with three epochs of
// history, shared by the engine benchmarks.
func benchEngine() *topicscope.Engine {
	tx := topicscope.NewTaxonomy()
	cl := topicscope.NewClassifier(tx)
	clock := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	eng := topicscope.NewEngine(tx, cl, topicscope.EngineConfig{
		Seed: 1, Now: func() time.Time { return clock },
	})
	for w := 0; w < 3; w++ {
		for i := 0; i < 50; i++ {
			site := fmt.Sprintf("news-site-%d.com", i)
			eng.RecordVisit(site)
			eng.Observe(site, "adtech.example")
		}
		clock = clock.Add(7 * 24 * time.Hour)
	}
	return eng
}

// benchCallerSites are pregenerated so the benchmark loop measures the
// engine call, not fmt.Sprintf.
func benchCallerSites() []string {
	sites := make([]string, 512)
	for i := range sites {
		sites[i] = fmt.Sprintf("pub-%d.com", i)
	}
	return sites
}

// BenchmarkTopicsEngineCall measures a browsingTopics() answer through
// the allocating convenience API (result slice per call).
func BenchmarkTopicsEngineCall(b *testing.B) {
	eng := benchEngine()
	sites := benchCallerSites()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.BrowsingTopics("adtech.example", sites[i%len(sites)])
	}
}

// BenchmarkTopicsEngineAppend measures the serving-path variant: the
// caller reuses a result buffer, so a warm engine answers without
// allocating (pinned at zero by TestAppendBrowsingTopicsZeroAlloc).
func BenchmarkTopicsEngineAppend(b *testing.B) {
	eng := benchEngine()
	sites := benchCallerSites()
	// Warm the per-site classification cache so the loop measures the
	// steady state.
	for _, s := range sites {
		eng.AppendBrowsingTopics(nil, "adtech.example", s)
	}
	buf := make([]topicscope.TopicResult, 0, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = eng.AppendBrowsingTopics(buf[:0], "adtech.example", sites[i%len(sites)])
	}
	_ = buf
}

// benchResponseWriter is a header-reusing sink so BenchmarkServePage
// measures the handler, not the recorder.
type benchResponseWriter struct {
	header http.Header
	bytes  int64
}

func (w *benchResponseWriter) Header() http.Header { return w.header }
func (w *benchResponseWriter) WriteHeader(int)     {}
func (w *benchResponseWriter) Write(p []byte) (int, error) {
	w.bytes += int64(len(p))
	return len(p), nil
}

// BenchmarkServePage measures a cached landing-page render through
// Server.ServeHTTP — the load harness's page path, allocation-free once
// the page cache is warm (pinned by TestServeSitePageZeroAlloc).
func BenchmarkServePage(b *testing.B) {
	_, res := benchInput(b)
	server := topicscope.NewServer(res.World, nil)
	var site string
	for _, s := range res.World.Sites {
		if s.Reachable && s.RedirectTo == "" {
			site = s.Domain
			break
		}
	}
	req := &http.Request{
		Method: "GET",
		Host:   site,
		URL:    &url.URL{Path: "/"},
		Header: http.Header{"Cookie": []string{"consent=1"}},
	}
	w := &benchResponseWriter{header: make(http.Header, 4)}
	server.ServeHTTP(w, req) // warm the page cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		server.ServeHTTP(w, req)
	}
}

// BenchmarkLoadServing runs the deterministic load harness at a fixed
// seed and reports its virtual SLO metrics. These are virtual-time
// quantities — identical on every host and for any GOMAXPROCS — so
// benchjson -check gates them hard: p50_ms/p99_ms/p999_ms must not
// rise past tolerance and req_s must not fall.
func BenchmarkLoadServing(b *testing.B) {
	world := topicscope.GenerateWorld(topicscope.WorldConfig{Seed: 1, NumSites: 600})
	var rep *topicscope.LoadReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := topicscope.RunLoad(topicscope.LoadConfig{
			World: world, Seed: 1, Requests: 8000, Rate: 4000, Users: 16,
		})
		if err != nil {
			b.Fatal(err)
		}
		rep = r
	}
	b.ReportMetric(rep.Overall.P50MS, "p50_ms")
	b.ReportMetric(rep.Overall.P99MS, "p99_ms")
	b.ReportMetric(rep.Overall.P999MS, "p999_ms")
	b.ReportMetric(rep.ReqPerSec, "req_s")
}

// BenchmarkReidentification measures the §2.1-cited re-identification
// attack simulation (extension experiment).
func BenchmarkReidentification(b *testing.B) {
	var last *topicscope.ReidentResult
	for i := 0; i < b.N; i++ {
		last = topicscope.SimulateReident(topicscope.ReidentConfig{
			Users: 100, Epochs: 5, Seed: uint64(i + 1),
		})
	}
	b.ReportMetric(last.MatchRate[len(last.MatchRate)-1]*100, "reident_pct_5_epochs")
}

// BenchmarkClassifier measures the hostname-to-topics model.
func BenchmarkClassifier(b *testing.B) {
	cl := topicscope.NewClassifier(topicscope.NewTaxonomy())
	hosts := []string{
		"daily-news-tribune.com", "travel-hotels.fr", "zzqxv.example",
		"shop-fashion-24.de", "games-arcade.io", "www.finance-invest.co.uk",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.Classify(hosts[i%len(hosts)])
	}
}

// BenchmarkAllowlistGate measures the caller check on a full-size list.
func BenchmarkAllowlistGate(b *testing.B) {
	_, res := benchInput(b)
	gate := topicscope.NewEnforcingGate(topicscope.NewAllowlist(res.World.Catalog.AllowedDomains()...))
	callers := []string{"criteo.com", "cdn.doubleclick.net", "unknown.example", "www.foo.it"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gate.Check(callers[i%len(callers)])
	}
}

// BenchmarkCrawlScaling measures campaign throughput at increasing
// world sizes (sites crawled per second, Before+After visits included).
func BenchmarkCrawlScaling(b *testing.B) {
	for _, sites := range []int{100, 300, 1000} {
		b.Run(fmt.Sprintf("sites=%d", sites), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := topicscope.Campaign{
					Seed: uint64(i + 1), Sites: sites, Workers: 16,
				}.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Stats.Attempted)/res.Stats.Elapsed.Seconds(), "sites/sec")
			}
		})
	}
}

// BenchmarkDatasetIO measures JSONL encoding of crawl records;
// BenchmarkDatasetDecode is the decode half.
func BenchmarkDatasetIO(b *testing.B) {
	_, res := benchInput(b)
	data := res.Data
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w := topicscope.NewDatasetWriter(&buf)
		for j := range data.Visits {
			if err := w.Write(&data.Visits[j]); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(buf.Len())/1024/1024, "MB")
		}
	}
}

// BenchmarkDatasetDecode measures reading the bytes BenchmarkDatasetIO
// writes back through dataset.Read.
func BenchmarkDatasetDecode(b *testing.B) {
	_, res := benchInput(b)
	var buf bytes.Buffer
	w := topicscope.NewDatasetWriter(&buf)
	for j := range res.Data.Visits {
		if err := w.Write(&res.Data.Visits[j]); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := dataset.Read(bytes.NewReader(buf.Bytes()), func(*dataset.Visit) error {
			n++
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if n != res.Data.Len() {
			b.Fatalf("read %d records, wrote %d", n, res.Data.Len())
		}
	}
}
