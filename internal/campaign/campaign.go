// Package campaign declares a measurement campaign's identity once and
// builds every crawl, recrawl and attestation sweep from it. A Spec
// holds the parameters that decide every visit record (the optional
// per-visit budget aside, a run setting of the crawls that use it); NewEnv
// turns it into a rank window's world, allow-list, chaos-weathered
// client and pre-filled crawler configuration, Env.Sweep runs the
// post-crawl attestation sweep, and Env.Analyze turns a campaign's fold
// into its report. The single-process campaign, shard workers, the
// coordinator's analysis phase, fsck's recrawls and report check, and
// the CLIs all go through here, so a repaired, resumed or sharded
// campaign publishes the same numbers as a clean one.
package campaign

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"time"

	"github.com/netmeasure/topicscope/internal/analysis"
	"github.com/netmeasure/topicscope/internal/attestation"
	"github.com/netmeasure/topicscope/internal/chaos"
	"github.com/netmeasure/topicscope/internal/crawler"
	"github.com/netmeasure/topicscope/internal/dataset"
	"github.com/netmeasure/topicscope/internal/obs"
	"github.com/netmeasure/topicscope/internal/webserver"
	"github.com/netmeasure/topicscope/internal/webworld"
)

// AllRanks as NewEnv's upper bound selects the whole world:
// GenerateRange clamps it to the last rank.
const AllRanks = math.MaxInt

// Spec is a campaign's identity: what decides the bytes of its visit
// records and attestation checks. Every crawl of one campaign (each
// shard, each resume, each repair) must use the same Spec, and the same
// crawler.Config VisitBudget where one is set.
type Spec struct {
	// World generates the campaign's web: Seed and NumSites, plus any
	// calibration overrides.
	World webworld.Config
	// Enforce runs the healthy-gate ablation instead of the paper's
	// corrupted gate.
	Enforce bool
	// Start is the virtual date of the first visit (zero = the paper's
	// crawl date).
	Start time.Time
	// Vantage is the visitor jurisdiction ("eu" default, "us").
	Vantage string
	// Chaos layers the paper-calibrated fault profile, seeded by
	// ChaosSeed, on the crawl client.
	Chaos     bool
	ChaosSeed uint64
	// Attempts is the try budget per navigation and fetch (0 = the
	// crawler default). CLIs set it with Attempts(-retries).
	Attempts int
}

// Attempts converts a CLI's -retries N, "extra attempts per navigation
// or fetch; 0 disables retries", into an attempt budget. Every CLI uses
// it, so -retries means the same on each.
func Attempts(retries int) int {
	return max(retries, 0) + 1
}

// CampaignRetries converts a CLI's -retries N into the public
// topicscope.Campaign's Retries field, whose zero keeps the default and
// whose negative values disable retries.
func CampaignRetries(retries int) int {
	if retries <= 0 {
		return -1
	}
	return retries
}

// Retries is the inverse of Attempts: the -retries value that makes a
// CLI crawl with s's attempt budget.
func (s Spec) Retries() int {
	if s.Attempts <= 0 {
		return crawler.DefaultAttempts - 1
	}
	return s.Attempts - 1
}

// Allowlist is the reference allow-list of a world: every enrolled
// platform. The caller universe is world-global, so any rank window
// yields the same list.
func Allowlist(world *webworld.World) *attestation.Allowlist {
	return attestation.NewAllowlist(world.Catalog.AllowedDomains()...)
}

// Env is one rank window's crawl environment.
type Env struct {
	World *webworld.World
	Allow *attestation.Allowlist
	// Client reaches the world: in-process by default, or whatever
	// UseClient installed, with the spec's chaos weather on it.
	Client *http.Client
	// Injector is the chaos injector on Client (nil without chaos), for
	// its stats.
	Injector *chaos.Injector

	spec Spec
}

// NewEnv generates ranks [from, to] of the spec's world (to = AllRanks
// for the whole of it) and serves them in-process.
func (s Spec) NewEnv(from, to int) *Env {
	world := webworld.GenerateRange(s.World, from, to)
	e := &Env{World: world, Allow: Allowlist(world), spec: s}
	e.UseClient(webserver.New(world, nil).Client())
	return e
}

// UseClient points the environment at another client (a topics-serve
// instance over TCP or TLS), layering the spec's chaos weather on it.
func (e *Env) UseClient(client *http.Client) {
	e.Client, e.Injector = client, nil
	if e.spec.Chaos {
		e.Injector = chaos.NewInjector(webworld.DefaultChaos(e.spec.ChaosSeed), client.Transport)
		client.Transport = e.Injector
	}
}

// Config returns a crawler configuration filled in from the environment
// and the spec; the caller adds parallelism, sinks and resume state.
func (e *Env) Config() crawler.Config {
	return crawler.Config{
		Client:             e.Client,
		ReferenceAllowlist: e.Allow,
		Enforce:            e.spec.Enforce,
		Start:              e.spec.Start,
		Vantage:            e.spec.Vantage,
		Attempts:           e.spec.Attempts,
	}
}

// Sweep runs the post-crawl attestation sweep: the well-known file of
// every allow-listed domain and every observed caller, checked through
// cr (nil = a crawler on this environment). Callers must come from the
// whole campaign's fold, not one run's segment. A sweep cut short by ctx
// returns ctx's error: its records are fetch errors, not the campaign's.
func (e *Env) Sweep(ctx context.Context, cr *crawler.Crawler, callers []string) ([]dataset.AttestationRecord, error) {
	if cr == nil {
		cr = crawler.New(e.Config())
	}
	recs := cr.CheckAttestations(ctx, append(e.Allow.Domains(), callers...))
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("campaign: attestation sweep: %w", err)
	}
	return recs, nil
}

// Analysis is a campaign's post-crawl product: the sweep's checks sorted
// by domain, the report, and the input it was computed from, whose
// finalized index further Compute* calls reuse.
type Analysis struct {
	Attestations []dataset.AttestationRecord
	Report       *analysis.Report
	Input        *analysis.Input
}

// Analyze is the post-crawl step of every report path: the sweep over
// the callers live has folded, through cr (nil = a crawler on this
// environment), then live finalized in place against its checks and
// every section computed. live must cover the whole campaign and is
// spent afterwards. data, where the caller collected the records, rides
// on the input for analysis.BuildTrace, which counts them.
func (e *Env) Analyze(ctx context.Context, cr *crawler.Crawler, live *analysis.LiveIndex, data *dataset.Dataset, reg *obs.Registry) (*Analysis, error) {
	recs, err := e.Sweep(ctx, cr, live.Callers())
	if err != nil {
		return nil, err
	}
	in := &analysis.Input{
		Data:         data,
		Allowlist:    e.Allow,
		Attestations: dataset.AttestationIndex(recs),
		Metrics:      reg,
	}
	idx, err := analysis.MergeShardIndexes(in, live)
	if err != nil {
		return nil, err
	}
	in.AdoptIndex(idx)
	return &Analysis{Attestations: recs, Input: in, Report: analysis.Run(in)}, nil
}
