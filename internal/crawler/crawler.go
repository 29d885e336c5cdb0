// Package crawler runs the paper's measurement campaign (§2.2): visit
// each site of a rank list, record the Before-Accept state, try to
// accept the privacy banner with the Priv-Accept logic, and — only on
// success — record an After-Accept visit. Every visit captures the
// downloaded first- and third-party objects and every Topics API call.
//
// The crawler is deliberately configured the way the paper's was:
//
//   - the browser's allow-list gate is corrupted, so not-Allowed callers
//     execute and are observed (§2.3);
//   - a reference allow-list annotates each call with the verdict a
//     healthy browser would have reached;
//   - visit times advance on a virtual clock derived from the site's
//     rank, so concurrent workers produce a byte-identical dataset.
package crawler

import (
	"context"
	"fmt"
	"hash/fnv"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"reflect"
	"strconv"
	"sync"
	"time"

	"github.com/netmeasure/topicscope/internal/attestation"
	"github.com/netmeasure/topicscope/internal/browser"
	"github.com/netmeasure/topicscope/internal/chaos"
	"github.com/netmeasure/topicscope/internal/dataset"
	"github.com/netmeasure/topicscope/internal/etld"
	"github.com/netmeasure/topicscope/internal/obs"
	"github.com/netmeasure/topicscope/internal/privaccept"
	"github.com/netmeasure/topicscope/internal/topics"
	"github.com/netmeasure/topicscope/internal/tranco"
)

// VisitWriter receives the campaign's visit records in rank order.
// *dataset.Writer is the plain JSONL implementation;
// *dataset.JournalWriter adds crash-safe framing and checkpoints.
type VisitWriter interface {
	Write(*dataset.Visit) error
	Flush() error
}

// SiteCompleter is implemented by checkpointing writers
// (dataset.JournalWriter): the crawler notifies it after a site's full
// record group has been written, in rank order, so the completed-site
// watermark can advance and a checkpoint can be cut at a site boundary.
type SiteCompleter interface {
	SiteCompleted(rank int, site string) error
}

// Config parameterises a crawl.
type Config struct {
	// Client performs HTTP for every browser the crawl spawns.
	Client *http.Client
	// ReferenceAllowlist is the healthy allow-list used for annotation
	// (and for the enforcing gate if Enforce is set).
	ReferenceAllowlist *attestation.Allowlist
	// Enforce runs the crawl with a healthy gate instead of the paper's
	// corrupted one — an ablation: anomalous calls disappear.
	Enforce bool
	// Engine optionally gives the crawl a browsing-history-bearing
	// Topics engine shared across all visits (one browser profile).
	Engine *topics.Engine
	// Workers is the parallelism (default 8).
	Workers int
	// Start is the virtual time of the first visit (default the paper's
	// crawl date, March 30th 2024).
	Start time.Time
	// VisitSpacing separates consecutive sites on the virtual clock; a
	// 50k-site crawl at 2s spacing spans ≈1 day like the paper's.
	VisitSpacing time.Duration
	// AcceptDelay separates a site's Before- and After-Accept visits.
	AcceptDelay time.Duration
	// PageTimeout bounds one page load (navigation plus every
	// subresource); default 30s, like a patient real crawl.
	PageTimeout time.Duration
	// Vantage is the visitor jurisdiction ("eu" default, "us"): §6's
	// single-location limitation, made a knob.
	Vantage string
	// Scheme is "http" (default) or "https" — with a TLS client from
	// webserver.NewTLSClient the whole campaign runs over HTTPS/2.
	Scheme string
	// Writer, when set, receives every visit record in rank order. If it
	// also implements SiteCompleter, the crawler reports each completed
	// site so the writer can checkpoint at site boundaries.
	Writer VisitWriter
	// Collect keeps all visits in memory and returns them from Run.
	Collect bool
	// SkipSites lists sites already crawled (resume support): they are
	// not revisited and produce no records.
	SkipSites map[string]bool
	// Attempts is the try budget for each navigation and each fetch
	// (1 = no retries; default 3). Navigation retries back off on the
	// virtual clock, so they cost no wall time and the redrawn fault
	// coins stay deterministic under any worker scheduling.
	Attempts int
	// RetryBackoff is the base virtual-clock delay before a navigation
	// retry (default 5s), doubled per attempt plus seeded jitter.
	RetryBackoff time.Duration
	// BreakerThreshold is the per-host circuit-breaker threshold within
	// one page load (default 3; negative disables the breaker).
	BreakerThreshold int
	// VisitBudget bounds one visit's stage-clock time (navigation plus
	// retry backoffs): when the budget is spent, remaining attempts are
	// abandoned and the visit records a deadline_exceeded failure
	// instead of wedging a worker. 0 (the default) disables the
	// watchdog. Being a virtual-clock bound, it is deterministic.
	VisitBudget time.Duration
	// Logger receives progress; nil disables logging.
	Logger *slog.Logger
	// ProgressEvery logs progress each N sites (default 1000).
	ProgressEvery int
	// Metrics, when set, receives crawl counters and per-stage latency
	// histograms (visits by phase/outcome, Topics calls, retries,
	// circuit opens) — the registry behind the crawler's /__metrics.
	Metrics *obs.Registry
	// Traces, when set, receives one obs.VisitTrace per visit, in rank
	// order from the single consumer goroutine, so a JSONL sink emits a
	// byte-deterministic file.
	Traces obs.Sink
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Start.IsZero() {
		c.Start = time.Date(2024, 3, 30, 6, 0, 0, 0, time.UTC)
	}
	if c.VisitSpacing <= 0 {
		c.VisitSpacing = 2 * time.Second
	}
	if c.AcceptDelay <= 0 {
		c.AcceptDelay = 30 * time.Second
	}
	if c.PageTimeout <= 0 {
		c.PageTimeout = 30 * time.Second
	}
	if c.ProgressEvery <= 0 {
		c.ProgressEvery = 1000
	}
	if c.ReferenceAllowlist == nil {
		c.ReferenceAllowlist = attestation.NewAllowlist()
	}
	if c.Attempts <= 0 {
		c.Attempts = DefaultAttempts
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 5 * time.Second
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	// A typed-nil writer (a nil *dataset.Writer handed to the interface
	// field) means "no writer", not "call methods on nil".
	if w := reflect.ValueOf(c.Writer); c.Writer != nil && w.Kind() == reflect.Pointer && w.IsNil() {
		c.Writer = nil
	}
	return c
}

// DefaultAttempts is Config.Attempts' default: two retries.
const DefaultAttempts = 3

// Stats aggregates a finished crawl.
type Stats struct {
	// Attempted sites, successful Before-Accept visits, and failures.
	Attempted, Succeeded, Failed int
	// BannersFound and Accepted count Priv-Accept outcomes; Accepted is
	// the D_AA size.
	BannersFound, Accepted int
	// CallsBefore / CallsAfter are total Topics API calls per phase.
	CallsBefore, CallsAfter int
	// Retries counts extra fetch/navigation attempts across all visits;
	// CircuitOpens counts requests short-circuited by an open breaker;
	// PartialVisits counts successful visits with failed subresources.
	Retries, CircuitOpens, PartialVisits int
	// FailedByClass breaks Failed down by error-taxonomy class.
	FailedByClass map[chaos.Class]int
	// Elapsed is the stage-clock span of the campaign: the latest
	// trace-root end minus Config.Start. Being virtual, it is identical
	// across runs, GOMAXPROCS and worker counts, like everything else in
	// the result.
	Elapsed time.Duration
}

// String renders a compact summary.
func (s Stats) String() string {
	return fmt.Sprintf("attempted=%d ok=%d failed=%d banners=%d accepted=%d callsBA=%d callsAA=%d retries=%d circuitOpens=%d partial=%d elapsed=%s",
		s.Attempted, s.Succeeded, s.Failed, s.BannersFound, s.Accepted,
		s.CallsBefore, s.CallsAfter, s.Retries, s.CircuitOpens, s.PartialVisits,
		s.Elapsed.Round(time.Millisecond))
}

// Result bundles a crawl's outputs.
type Result struct {
	Stats Stats
	// Data holds the visits if Config.Collect was set.
	Data *dataset.Dataset
}

// Crawler executes measurement campaigns.
type Crawler struct {
	cfg Config
}

// New builds a Crawler.
func New(cfg Config) *Crawler {
	return &Crawler{cfg: cfg.withDefaults()}
}

// siteResult carries one site's visit records (and their stage-clock
// traces, one per visit) to the rank-ordered writer.
type siteResult struct {
	rank   int
	visits []dataset.Visit
	traces []*obs.VisitTrace
}

// Run crawls every entry of the list. It honours ctx cancellation,
// returning the partial result and ctx.Err().
func (c *Crawler) Run(ctx context.Context, list *tranco.List) (*Result, error) {
	cfg := c.cfg
	res := &Result{}
	if cfg.Collect {
		res.Data = &dataset.Dataset{}
	}

	jobs := make(chan tranco.Entry)
	results := make(chan siteResult, cfg.Workers*2)

	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for entry := range jobs {
				var visits []dataset.Visit
				var traces []*obs.VisitTrace
				if !cfg.SkipSites[entry.Domain] {
					visits, traces = c.crawlSite(ctx, entry)
				}
				// Deliver unconditionally, even mid-drain: the consumer
				// reads until every worker exits, and abandoned visits
				// must reach it to be counted (their records carry the
				// aborted class and are kept out of the journal).
				results <- siteResult{rank: entry.Rank, visits: visits, traces: traces}
			}
		}()
	}

	// Feeder.
	go func() {
		defer close(jobs)
		for _, e := range list.Entries {
			select {
			case jobs <- e:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	// Rank-ordered consumer: a reorder buffer keyed by rank keeps the
	// output deterministic under any worker scheduling.
	err := c.consume(ctx, list, results, res)
	if err != nil {
		// Unblock any workers still sending so they can observe ctx or
		// finish; without this a failed writer would leak goroutines.
		// The drain exits when the closer goroutine above closes
		// results, which the wg.Wait join already bounds.
		//topicslint:ignore goroleak drain is bounded by close(results) from the wg-joined closer above
		go func() {
			for range results {
			}
		}()
	}

	if cfg.Logger != nil {
		cfg.Logger.Info("crawl finished", "stats", res.Stats.String())
	}
	return res, err
}

func (c *Crawler) consume(ctx context.Context, list *tranco.List, results <-chan siteResult, res *Result) error {
	cfg := c.cfg
	pending := make(map[int]siteResult)
	if len(list.Entries) == 0 {
		return nil
	}
	nextIdx := 0
	var lastStage time.Time // latest stage-clock instant seen, for Elapsed
	// Drain discipline: from the first site carrying a drain-aborted
	// record onward, nothing reaches the writer (or Collect) — the
	// journal stays rank-contiguous and holds only finished sites, so a
	// resumed campaign recrawls the abandoned tail and reproduces the
	// uninterrupted dataset byte for byte. Stats, metrics and traces
	// still see the abandoned visits.
	suppress := false
	abandoned := 0
	var drainStart time.Time
	siteAborted := func(sr siteResult) bool {
		for i := range sr.visits {
			if sr.visits[i].ErrorClass == string(chaos.ClassAborted) {
				return true
			}
		}
		return false
	}
	// One histogram handle per span name, resolved on first sight: the
	// metric key is rendered once per stage instead of once per span.
	stageHists := make(map[string]*obs.Histogram)
	emit := func(sr siteResult, site string) error {
		if !suppress && siteAborted(sr) {
			suppress = true
			if len(sr.traces) > 0 {
				drainStart = sr.traces[0].Root.Start
			}
		}
		if suppress && len(sr.visits) > 0 {
			abandoned++
		}
		for i := range sr.visits {
			v := &sr.visits[i]
			c.accumulate(res, v)
			if cfg.Writer != nil && !suppress {
				if err := cfg.Writer.Write(v); err != nil {
					return err
				}
			}
			if cfg.Collect && !suppress {
				res.Data.Append(*v)
			}
		}
		if cfg.Writer != nil && !suppress && len(sr.visits) > 0 {
			if sc, ok := cfg.Writer.(SiteCompleter); ok {
				if err := sc.SiteCompleted(sr.rank, site); err != nil {
					return err
				}
			}
		}
		for _, tr := range sr.traces {
			if tr.Root.End.After(lastStage) {
				lastStage = tr.Root.End
			}
			if cfg.Metrics != nil {
				tr.Root.Walk(func(s *obs.Span) {
					h := stageHists[s.Name]
					if h == nil {
						h = cfg.Metrics.Hist("crawl_stage_seconds", "stage", s.Name)
						stageHists[s.Name] = h
					}
					h.Observe(s.Duration())
				})
			}
			if cfg.Traces != nil {
				if err := cfg.Traces.WriteTrace(tr); err != nil {
					return err
				}
			}
		}
		return nil
	}
	done := 0
	for sr := range results {
		pending[sr.rank] = sr
		for nextIdx < len(list.Entries) {
			sr, ok := pending[list.Entries[nextIdx].Rank]
			if !ok {
				break
			}
			delete(pending, list.Entries[nextIdx].Rank)
			if err := emit(sr, list.Entries[nextIdx].Domain); err != nil {
				return err
			}
			nextIdx++
			done++
			if cfg.Logger != nil && done%cfg.ProgressEvery == 0 {
				cfg.Logger.Info("crawl progress", "sites", done, "of", len(list.Entries))
			}
		}
	}
	if !lastStage.IsZero() {
		res.Stats.Elapsed = lastStage.Sub(cfg.Start)
	}
	// The flush (for a journal writer: the final checkpoint) happens
	// even on cancellation — a graceful drain's whole point is that the
	// finished prefix is durable before the process exits.
	if cfg.Writer != nil {
		if err := cfg.Writer.Flush(); err != nil {
			return err
		}
	}
	if ctx.Err() != nil {
		cfg.Metrics.Add("crawl_drain_total", 1)
		cfg.Metrics.Add("crawl_drain_abandoned_total", int64(abandoned))
		if !drainStart.IsZero() && lastStage.After(drainStart) {
			cfg.Metrics.Observe("crawl_drain_seconds", lastStage.Sub(drainStart))
		}
		if cfg.Logger != nil {
			cfg.Logger.Info("crawl drained", "completed", done-abandoned, "abandoned", abandoned)
		}
		return ctx.Err()
	}
	return nil
}

func (c *Crawler) accumulate(res *Result, v *dataset.Visit) {
	st := &res.Stats
	m := c.cfg.Metrics
	m.Add("crawl_visits_total", 1, "phase", string(v.Phase), "outcome", visitOutcome(v))
	m.Add("crawl_topics_calls_total", int64(len(v.Calls)), "phase", string(v.Phase))
	m.Add("crawl_retries_total", int64(v.Retries))
	if v.ErrorClass != "" {
		m.Add("crawl_failures_total", 1, "class", v.ErrorClass)
	}
	st.Retries += v.Retries
	if v.Partial {
		st.PartialVisits++
	}
	for _, r := range v.Resources {
		if r.Failed && r.Error == string(chaos.ClassCircuitOpen) {
			st.CircuitOpens++
			m.Add("crawl_circuit_opens_total", 1)
		}
	}
	switch v.Phase {
	case dataset.BeforeAccept:
		st.Attempted++
		if v.Success {
			st.Succeeded++
		} else {
			st.Failed++
			if st.FailedByClass == nil {
				st.FailedByClass = make(map[chaos.Class]int)
			}
			st.FailedByClass[chaos.Class(v.ErrorClass)]++
		}
		if v.BannerDetected {
			st.BannersFound++
		}
		if v.Accepted {
			st.Accepted++
		}
		st.CallsBefore += len(v.Calls)
	case dataset.AfterAccept:
		st.CallsAfter += len(v.Calls)
	}
}

// crawlSite performs the Before-Accept visit, the Priv-Accept consent
// interaction and — on success — the After-Accept visit. Each visit
// builds an obs trace on its own stage clock; the traces flow through
// the same rank-ordered path as the visit records, and always exist
// (even with no Traces sink) because Stats.Elapsed derives from them.
func (c *Crawler) crawlSite(ctx context.Context, entry tranco.Entry) ([]dataset.Visit, []*obs.VisitTrace) {
	cfg := c.cfg
	visitTime := cfg.Start.Add(time.Duration(entry.Rank-1) * cfg.VisitSpacing)

	// One fresh browser profile per site; the Topics engine (if any) is
	// shared, like a single browser visiting site after site.
	clock := visitTime
	gate := attestation.NewCorruptedGate()
	if cfg.Enforce {
		gate = attestation.NewEnforcingGate(cfg.ReferenceAllowlist)
	}
	b := browser.New(browser.Config{
		Client:             cfg.Client,
		Gate:               gate,
		ReferenceAllowlist: cfg.ReferenceAllowlist,
		Engine:             cfg.Engine,
		Vantage:            cfg.Vantage,
		Scheme:             cfg.Scheme,
		Attempts:           cfg.Attempts,
		BreakerThreshold:   cfg.BreakerThreshold,
		Now:                func() time.Time { return clock },
	})

	// loadPage navigates with bounded retries: each retry backs the
	// virtual clock off exponentially (with seeded jitter), so the
	// chaos injector redraws its fault coin through the time header and
	// the dataset stays byte-identical under any worker scheduling. The
	// backoff is also charged to the visit's stage clock, so the trace
	// shows the virtual time a retried navigation consumed.
	loadPage := func(tr *obs.Trace, visitStart time.Time) (*browser.PageVisit, int, error) {
		tr.Start("navigate", obs.A("site", entry.Domain))
		defer tr.End()
		var pv *browser.PageVisit
		var err error
		retries := 0
		for attempt := 0; ; attempt++ {
			// Deadline watchdog: once the visit's stage-clock budget is
			// spent (navigation plus accumulated retry backoff), stop
			// attempting and record the visit as deadline_exceeded
			// instead of wedging the worker on a hung host. Stage time
			// is virtual, so the cut-off is deterministic.
			if cfg.VisitBudget > 0 && attempt > 0 && tr.Now().Sub(visitStart) >= cfg.VisitBudget {
				tr.Annotate(obs.A("deadline", "exceeded"))
				return pv, retries, &chaos.Error{
					Class: chaos.ClassDeadline, Host: entry.Domain, Latency: cfg.VisitBudget,
				}
			}
			loadCtx, cancel := context.WithTimeout(ctx, cfg.PageTimeout)
			pv, err = b.LoadPageTraced(loadCtx, entry.Domain, tr)
			cancel()
			if err == nil || attempt+1 >= cfg.Attempts ||
				!chaos.Retryable(chaos.Classify(err)) || ctx.Err() != nil {
				if retries > 0 {
					tr.Annotate(obs.A("retries", strconv.Itoa(retries)))
				}
				return pv, retries, err
			}
			retries++
			back := navBackoff(cfg.RetryBackoff, entry.Domain, attempt)
			clock = clock.Add(back)
			tr.Start("retry_backoff", obs.A("attempt", strconv.Itoa(attempt)))
			tr.Advance(back)
			tr.End()
		}
	}
	mkTrace := func(tr *obs.Trace, v *dataset.Visit) *obs.VisitTrace {
		return &obs.VisitTrace{
			Site:    entry.Domain,
			Rank:    entry.Rank,
			Phase:   string(v.Phase),
			Outcome: visitOutcome(v),
			Root:    tr.Finish(),
		}
	}

	// Before-Accept visit.
	before := dataset.Visit{
		Site:      entry.Domain,
		Rank:      entry.Rank,
		Phase:     dataset.BeforeAccept,
		FetchedAt: visitTime,
	}
	trBefore := obs.NewTrace("visit", visitTime)
	pv, navRetries, err := loadPage(trBefore, visitTime)
	fillVisit(&before, pv, err)
	markAborted(ctx, &before, entry.Domain)
	before.Retries += navRetries
	if !before.Success {
		return []dataset.Visit{before}, []*obs.VisitTrace{mkTrace(trBefore, &before)}
	}

	// Priv-Accept: find the banner and its accept control.
	det := privaccept.Detect(pv.Doc)
	before.BannerDetected = det.BannerFound
	before.BannerLanguage = det.Language
	before.CMP = cmpOf(pv)
	if !det.AcceptFound {
		// No banner, or Priv-Accept missed language/keyword: no
		// After-Accept visit (§2.2).
		return []dataset.Visit{before}, []*obs.VisitTrace{mkTrace(trBefore, &before)}
	}
	before.Accepted = true

	// Click accept: consent attaches to the page's origin (the sister
	// domain for redirecting sites).
	trBefore.Start("consent_click", obs.A("cmp", before.CMP))
	trBefore.Advance(obs.ConsentClickCost)
	trBefore.End()
	b.SetConsent(pv.PageOrigin)

	// After-Accept visit, cache cleared ("We delete the browser cache to
	// load again all objects").
	clock = visitTime.Add(cfg.AcceptDelay)
	after := dataset.Visit{
		Site:      entry.Domain,
		Rank:      entry.Rank,
		Phase:     dataset.AfterAccept,
		FetchedAt: clock,
		Accepted:  true,
	}
	trAfter := obs.NewTrace("visit", clock)
	pv2, navRetries2, err2 := loadPage(trAfter, clock)
	fillVisit(&after, pv2, err2)
	markAborted(ctx, &after, entry.Domain)
	after.Retries += navRetries2
	if err2 == nil {
		after.BannerDetected = det.BannerFound
		after.BannerLanguage = det.Language
		after.CMP = cmpOf(pv2)
	}
	return []dataset.Visit{before, after},
		[]*obs.VisitTrace{mkTrace(trBefore, &before), mkTrace(trAfter, &after)}
}

// markAborted reclassifies a visit that finished while the campaign is
// draining (context cancelled, SIGTERM) as a failed "aborted" visit.
// That includes visits the page load reported as successful: a cancel
// mid-load can cut sub-resource fetches short (a spurious failure) or
// stop the walk before them (a silently short resource list), and
// neither record matches what an uninterrupted run would journal. The
// site was not given a fair visit and is recrawled on resume, so
// marking a visit that happened to complete costs only that recrawl.
func markAborted(ctx context.Context, v *dataset.Visit, site string) {
	if ctx.Err() == nil {
		return
	}
	e := &chaos.Error{Class: chaos.ClassAborted, Host: site}
	v.Success, v.Partial = false, false
	v.Error = e.Error()
	v.ErrorClass = string(chaos.ClassAborted)
}

// visitOutcome classifies a visit record for traces and metrics: "ok",
// "partial" (loaded with failed subresources) or "error".
func visitOutcome(v *dataset.Visit) string {
	switch {
	case !v.Success:
		return "error"
	case v.Partial:
		return "partial"
	default:
		return "ok"
	}
}

// fillVisit copies a browser PageVisit into a dataset record.
func fillVisit(v *dataset.Visit, pv *browser.PageVisit, err error) {
	if pv != nil {
		v.Resources = pv.Resources
		v.Calls = pv.Calls
		v.Retries += pv.Retries
	}
	if err != nil {
		v.Success = false
		v.Error = errText(err)
		v.ErrorClass = string(chaos.Classify(err))
		return
	}
	v.Success = true
	for _, r := range v.Resources {
		if r.Failed {
			v.Partial = true
			break
		}
	}
}

// errText renders a failure with its taxonomy class as prefix, so the
// raw dataset stays greppable by error kind.
func errText(err error) string {
	if c := chaos.Classify(err); c != chaos.ClassNone && c != chaos.ClassOther {
		return string(c) + ": " + err.Error()
	}
	return err.Error()
}

// navBackoff is the virtual-clock delay before navigation retry
// attempt+1: exponential in the attempt with jitter seeded from the
// site name, deterministic by construction.
func navBackoff(base time.Duration, site string, attempt int) time.Duration {
	d := base << attempt
	h := fnv.New64a()
	h.Write([]byte(site))
	h.Write([]byte{0})
	h.Write([]byte(strconv.Itoa(attempt)))
	rng := rand.New(rand.NewPCG(0xbac0ff, h.Sum64()))
	return d + time.Duration(rng.Int64N(int64(base)/2+1))
}

// cmpOf fingerprints the CMP in use from the downloaded resources, by
// domain, as the paper does with the Wappalyzer list.
func cmpOf(pv *browser.PageVisit) string {
	for _, r := range pv.Resources {
		if r.Failed {
			continue
		}
		if name, ok := cmpByHost(r.Host); ok {
			return name
		}
	}
	return ""
}

func cmpByHost(host string) (string, bool) {
	return cmpLookup(etld.Normalize(host))
}
