package topicscope

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"github.com/netmeasure/topicscope/internal/adcatalog"
	"github.com/netmeasure/topicscope/internal/analysis"
	"github.com/netmeasure/topicscope/internal/attestation"
	"github.com/netmeasure/topicscope/internal/browser"
	"github.com/netmeasure/topicscope/internal/chaos"
	"github.com/netmeasure/topicscope/internal/classifier"
	"github.com/netmeasure/topicscope/internal/crawler"
	"github.com/netmeasure/topicscope/internal/dataset"
	"github.com/netmeasure/topicscope/internal/durable"
	"github.com/netmeasure/topicscope/internal/etld"
	"github.com/netmeasure/topicscope/internal/obs"
	"github.com/netmeasure/topicscope/internal/reident"
	"github.com/netmeasure/topicscope/internal/taxonomy"
	"github.com/netmeasure/topicscope/internal/topics"
	"github.com/netmeasure/topicscope/internal/tranco"
	"github.com/netmeasure/topicscope/internal/webserver"
	"github.com/netmeasure/topicscope/internal/webworld"
)

// ---- Synthetic web ----

// World is the generated synthetic web (see DESIGN.md, Substitutions).
type (
	World       = webworld.World
	WorldConfig = webworld.Config
	Site        = webworld.Site
	WorldStats  = webworld.Stats
)

// GenerateWorld builds the deterministic synthetic web.
func GenerateWorld(cfg WorldConfig) *World { return webworld.Generate(cfg) }

// SaveWorld / LoadWorld persist a world spec as JSON so a crawl target
// can be inspected or served without regenerating.
func SaveWorld(w *World, out io.Writer) error { return w.Save(out) }
func LoadWorld(in io.Reader) (*World, error)  { return webworld.Load(in) }

// ---- Serving ----

// Server virtual-hosts the synthetic web over HTTP.
type Server = webserver.Server

// NewServer builds a Server; now supplies virtual time (nil = wall
// clock).
func NewServer(w *World, now func() time.Time) *Server { return webserver.New(w, now) }

// NewTCPClient dials every hostname to addr, for crawling a server
// started with topics-serve.
func NewTCPClient(w *World, addr string, timeout time.Duration) *http.Client {
	return webserver.NewTCPClient(w, addr, timeout)
}

// CertAuthority mints per-host certificates for serving the synthetic
// web over TLS; NewTLSClient is the HTTPS counterpart of NewTCPClient.
type CertAuthority = webserver.CertAuthority

// NewCertAuthority creates an in-memory CA anchored at notBefore (zero =
// now).
func NewCertAuthority(notBefore time.Time) (*CertAuthority, error) {
	return webserver.NewCertAuthority(notBefore)
}

// NewTLSClient dials every hostname to addr over TLS with per-host SNI,
// verified against the CA; HTTP/2 is negotiated via ALPN.
func NewTLSClient(w *World, addr string, ca *CertAuthority, timeout time.Duration) *http.Client {
	return webserver.NewTLSClient(w, addr, ca, timeout)
}

// NewTLSClientFromPEM is NewTLSClient for out-of-process servers: trust
// the CA certificate PEM that topics-serve -tls wrote.
func NewTLSClientFromPEM(w *World, addr string, caPEM []byte, timeout time.Duration) (*http.Client, error) {
	return webserver.NewTLSClientFromPEM(w, addr, caPEM, timeout)
}

// ---- Chaos / fault injection ----

// Chaos is the seeded, deterministic fault injector reproducing the
// unreliable Internet of §2.4, and the crawl error taxonomy.
type (
	ChaosConfig   = chaos.Config
	ChaosStats    = chaos.Stats
	ChaosSnapshot = chaos.StatsSnapshot
	ChaosClass    = chaos.Class
	ChaosInjector = chaos.Injector
	ChaosHandler  = chaos.Handler
)

// DefaultChaos returns the paper-calibrated fault profile (layered on
// the world's 86.8% reachable rate).
func DefaultChaos(seed uint64) ChaosConfig { return webworld.DefaultChaos(seed) }

// NewChaosInjector wraps a client-side transport with fault injection.
func NewChaosInjector(cfg ChaosConfig, next http.RoundTripper) *ChaosInjector {
	return chaos.NewInjector(cfg, next)
}

// NewChaosHandler wraps a server-side handler with fault injection.
func NewChaosHandler(cfg ChaosConfig, next http.Handler) *ChaosHandler {
	return chaos.NewHandler(cfg, next)
}

// EnableChaos wraps a client's transport with fault injection in place
// and returns the injector (for its stats).
func EnableChaos(client *http.Client, cfg ChaosConfig) *ChaosInjector {
	in := chaos.NewInjector(cfg, client.Transport)
	client.Transport = in
	return in
}

// ClassifyError maps any crawl error onto the error taxonomy.
func ClassifyError(err error) ChaosClass { return chaos.Classify(err) }

// MetricsPath is the debug endpoint topics-serve exposes.
const MetricsPath = webserver.MetricsPath

// MetricsHandler renders server, chaos and observability counters in
// Prometheus text format (chaosStats and reg may be nil).
func MetricsHandler(s *Server, chaosStats *ChaosStats, reg *MetricsRegistry) http.Handler {
	return webserver.MetricsHandler(s, chaosStats, reg)
}

// ---- Observability ----

// Deterministic tracing and metrics (internal/obs): spans are timed on
// a per-visit stage clock, so trace JSONL is byte-identical across runs
// and GOMAXPROCS; registries merge commutatively like analysis shards.
type (
	MetricsRegistry = obs.Registry
	TraceSpan       = obs.Span
	TraceAttr       = obs.Attr
	TraceRecord     = obs.VisitTrace
	TraceSink       = obs.Sink
	TraceTee        = obs.Tee
	TraceWriter     = obs.TraceWriter
	TraceSummary    = obs.Summary
	StageSummary    = obs.StageSummary
	StageRow        = obs.StageRow
)

// NewMetricsRegistry builds an empty observability registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTraceWriter streams trace records as deterministic JSONL.
func NewTraceWriter(w io.Writer) *TraceWriter { return obs.NewTraceWriter(w) }

// NewTraceSummary builds an empty trace summary (a TraceSink that folds
// traces into campaign-level aggregates).
func NewTraceSummary() *TraceSummary { return obs.NewSummary() }

// ReadTraces streams every record of a trace JSONL reader to fn.
func ReadTraces(r io.Reader, fn func(*TraceRecord) error) error {
	return obs.ReadTraces(r, fn)
}

// ObsHandler serves a registry in Prometheus text format (the
// crawler-side /__metrics endpoint).
func ObsHandler(reg *MetricsRegistry) http.Handler { return obs.Handler(reg) }

// DebugMux serves a registry at /__metrics plus net/http/pprof under
// /debug/pprof/ — the handler behind the -pprof flags.
func DebugMux(reg *MetricsRegistry) *http.ServeMux { return obs.DebugMux(reg) }

// ---- Browser & crawling ----

// Browser is the instrumented emulated browser.
type (
	Browser       = browser.Browser
	BrowserConfig = browser.Config
	PageVisit     = browser.PageVisit
)

// NewBrowser builds an instrumented browser.
func NewBrowser(cfg BrowserConfig) *Browser { return browser.New(cfg) }

// Crawler runs measurement campaigns.
type (
	Crawler       = crawler.Crawler
	CrawlerConfig = crawler.Config
	CrawlStats    = crawler.Stats
	CrawlResult   = crawler.Result
)

// NewCrawler builds a Crawler.
func NewCrawler(cfg CrawlerConfig) *Crawler { return crawler.New(cfg) }

// ---- Dataset ----

// Dataset records and codecs.
type (
	Dataset           = dataset.Dataset
	Visit             = dataset.Visit
	TopicsCall        = dataset.TopicsCall
	Resource          = dataset.Resource
	CallType          = dataset.CallType
	Phase             = dataset.Phase
	DatasetWriter     = dataset.Writer
	AttestationRecord = dataset.AttestationRecord
)

// Phases and call types.
const (
	BeforeAccept = dataset.BeforeAccept
	AfterAccept  = dataset.AfterAccept

	CallJavaScript = dataset.CallJavaScript
	CallFetch      = dataset.CallFetch
	CallIframe     = dataset.CallIframe
)

// LoadDataset reads a JSONL crawl from disk.
func LoadDataset(path string) (*Dataset, error) { return dataset.LoadFile(path) }

// CompletedSites returns the sites already recorded in a JSONL crawl
// file, for resuming an interrupted campaign. Truncated or corrupt
// trailing records are salvaged, never fatal: the valid prefix decides.
func CompletedSites(path string) (map[string]bool, error) { return dataset.CompletedSites(path) }

// ---- Crash-safe persistence ----

// Crash-safe journal types (see DESIGN.md, "Crash safety"): a
// DatasetJournal is a Visit sink whose writes are framed, checkpointed
// and recoverable after kill -9; the Manifest is the fsync'd checkpoint
// record that makes resume O(tail).
type (
	DatasetJournal = dataset.JournalWriter
	JournalOptions = dataset.JournalOptions
	ResumeState    = dataset.ResumeState
	Manifest       = durable.Manifest
)

// DefaultCheckpointEvery is the journal's default checkpoint cadence:
// sites completed between durable checkpoints.
const DefaultCheckpointEvery = dataset.DefaultCheckpointEvery

// CreateJournal starts a fresh crash-safe dataset journal at path
// (gzip-compressed when the path ends in .gz).
func CreateJournal(path string, opts JournalOptions) (*DatasetJournal, error) {
	return dataset.CreateJournal(path, opts)
}

// ResumeJournal reopens an interrupted journal: it truncates to the
// last checkpoint, replays the tail, drops torn site groups, and
// returns the writer positioned to append plus what survived.
func ResumeJournal(path string, opts JournalOptions) (*DatasetJournal, *ResumeState, error) {
	return dataset.ResumeJournal(path, opts)
}

// LoadManifest reads the checkpoint manifest beside a journal; nil
// means no usable manifest (resume falls back to a full scan).
func LoadManifest(journalPath string) *Manifest { return durable.LoadManifest(journalPath) }

// WriteFileAtomic writes a whole-file artifact via the
// temp-file/fsync/rename discipline, so readers observe either the old
// file or the complete new one — never a torn write.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	return durable.WriteFileAtomic(path, write)
}

// ---- Topics engine ----

// Topics API engine, taxonomy and classifier.
type (
	Engine       = topics.Engine
	EngineConfig = topics.Config
	TopicResult  = topics.Result
	Taxonomy     = taxonomy.Taxonomy
	Topic        = taxonomy.Topic
	Classifier   = classifier.Classifier
)

// NewTaxonomy returns the embedded Topics taxonomy (v2).
func NewTaxonomy() *Taxonomy { return taxonomy.NewV2() }

// NewClassifier builds the site-to-topics model over a taxonomy.
func NewClassifier(tx *Taxonomy) *Classifier { return classifier.New(tx) }

// NewEngine builds the browser-side Topics engine.
func NewEngine(tx *Taxonomy, cl *Classifier, cfg EngineConfig) *Engine {
	return topics.NewEngine(tx, cl, cfg)
}

// ---- Enrolment artifacts ----

// Allow-list, attestations and the caller gate.
type (
	Allowlist       = attestation.Allowlist
	AttestationFile = attestation.File
	Gate            = attestation.Gate
)

// WellKnownPath is the attestation file's fixed URL path.
const WellKnownPath = attestation.WellKnownPath

// NewAllowlist builds an in-memory allow-list.
func NewAllowlist(domains ...string) *Allowlist { return attestation.NewAllowlist(domains...) }

// NewEnforcingGate is the healthy browser check; NewCorruptedGate is the
// §2.3 default-allow bug configuration the paper's crawler uses.
func NewEnforcingGate(list *Allowlist) *Gate { return attestation.NewEnforcingGate(list) }

// NewCorruptedGate builds the buggy default-allow gate.
func NewCorruptedGate() *Gate { return attestation.NewCorruptedGate() }

// ---- Rank lists ----

// RankList is a Tranco-style top-sites list.
type RankList = tranco.List

// LoadRankList parses a Tranco CSV from disk.
func LoadRankList(path string) (*RankList, error) { return tranco.LoadFile(path) }

// ---- Analysis ----

// Analysis inputs and outputs.
type (
	AnalysisInput = analysis.Input
	AnalysisIndex = analysis.Index
	Report        = analysis.Report
	Alternation   = analysis.Alternation
)

// Analyze computes every experiment over a dataset. The input's
// analysis index is built once (one parallel pass over the visits) and
// reused by every experiment; further Compute* calls on the same input
// answer from the same index.
func Analyze(in *AnalysisInput) *Report { return analysis.Run(in) }

// BuildAnalysisIndex aggregates a dataset into the single-pass analysis
// index ahead of time — useful to front-load the scan before fanning
// experiments out. Analyze and the Compute* helpers build it lazily, so
// calling this is never required.
func BuildAnalysisIndex(in *AnalysisInput) *AnalysisIndex { return in.Index() }

// AnalyzeAlternation summarises a repeated-visit ON/OFF series
// (experiment S1).
func AnalyzeAlternation(series []bool) Alternation { return analysis.AnalyzeAlternation(series) }

// CompareEnabledRates contrasts two Figure 3 computations over the same
// population at different times (experiment L1).
func CompareEnabledRates(a, b *analysis.Figure3) *analysis.Longitudinal {
	return analysis.CompareEnabledRates(a, b)
}

// ComputeFigure3 runs the Figure 3 experiment alone (used with
// CompareEnabledRates for longitudinal snapshots).
func ComputeFigure3(in *AnalysisInput, minPresence, topN int) *analysis.Figure3 {
	return analysis.ComputeFigure3(in, minPresence, topN)
}

// ComputeOverview runs the dataset-overview experiment (D1) alone.
func ComputeOverview(in *AnalysisInput) *analysis.Overview {
	return analysis.ComputeOverview(in)
}

// ComputeTrajectory returns the campaign's virtual-week trajectory
// (experiment L1's live form), folded incrementally into the index.
func ComputeTrajectory(in *AnalysisInput) *analysis.Trajectory {
	return analysis.ComputeTrajectory(in)
}

// ---- Incremental (live) analysis ----

// Incremental analysis types (see DESIGN.md, "Incremental analysis"):
// a LiveAnalysisIndex folds the analysis index one committed record at
// a time; LiveAnalysisStats reports the O(tail + snapshot) cost of
// assembling one; FrameIndex is the sparse rank/record → byte-offset
// index kept beside a journal for seeking into multi-GB datasets.
type (
	LiveAnalysisIndex = analysis.LiveIndex
	LiveAnalysisSink  = analysis.LiveSink
	LiveAnalysisStats = analysis.LiveStats
	FrameIndex        = durable.FrameIndex
	FrameEntry        = durable.FrameEntry
	RangeStats        = dataset.RangeStats
	Trajectory        = analysis.Trajectory
)

// NewLiveAnalysisIndex returns an empty fold accumulator over the
// input's allow-list. Fold every visit into it, then Snapshot an
// AnalysisIndex at any point without stopping the fold.
func NewLiveAnalysisIndex(in *AnalysisInput) *LiveAnalysisIndex {
	return analysis.NewLiveIndex(in)
}

// NewLiveAnalysisSink builds the journal observer that maintains a live
// index and serializes it beside the journal (<path>.idx) at every
// committed checkpoint; pass it as JournalOptions.Observer.
func NewLiveAnalysisSink(journalPath string, in *AnalysisInput) *LiveAnalysisSink {
	return analysis.NewLiveSink(journalPath, in)
}

// OpenLiveAnalysisSink builds the observer for a journal about to be
// resumed: the checkpoint snapshot is restored when it matches the
// manifest, else the committed prefix is re-folded from byte 0
// (salvage, never error). ResumeJournal replays the salvaged tail
// through the observer itself.
func OpenLiveAnalysisSink(journalPath string, in *AnalysisInput) (*LiveAnalysisSink, *LiveAnalysisStats, error) {
	return analysis.OpenLiveSink(journalPath, in)
}

// LoadLiveAnalysisIndex assembles the fold accumulator for a (possibly
// still growing) journal from its checkpoint snapshot plus the
// uncommitted tail — O(tail + snapshot) bytes, degrading to a full
// folding scan when the snapshot is unusable.
func LoadLiveAnalysisIndex(journalPath string, in *AnalysisInput) (*LiveAnalysisIndex, *LiveAnalysisStats, error) {
	return analysis.LoadLiveIndex(journalPath, in)
}

// AdoptAnalysisIndex installs an externally assembled index (a live
// snapshot or a shard merge) as the input's index, so Analyze and the
// Compute* helpers reuse it instead of re-scanning the dataset.
func AdoptAnalysisIndex(in *AnalysisInput, idx *AnalysisIndex) bool {
	return in.AdoptIndex(idx)
}

// LoadFrameIndex reads the sparse frame index beside a journal; nil
// means no usable index (readers fall back to scanning from byte 0).
func LoadFrameIndex(journalPath string) *FrameIndex {
	return durable.LoadFrameIndex(journalPath)
}

// ReadRecordRange streams journal records [from, to) (append order,
// to < 0 = through the end) into fn, seeking via the frame index when
// one is usable.
func ReadRecordRange(path string, from, to int64, fn func(*Visit) error) (*RangeStats, error) {
	return dataset.ReadRecordRange(path, from, to, fn)
}

// ---- Platforms & hosts ----

// AdPlatform describes one calling party of the catalog.
type AdPlatform = adcatalog.Platform

// RegistrableDomain returns the eTLD+1 of a hostname.
func RegistrableDomain(host string) string { return etld.RegistrableDomain(host) }

// ---- Persistence helpers ----

// NewDatasetWriter streams visit records as JSONL.
func NewDatasetWriter(w io.Writer) *DatasetWriter { return dataset.NewWriter(w) }

// SaveAttestations / LoadAttestations persist attestation records as
// JSONL.
func SaveAttestations(path string, recs []AttestationRecord) error {
	return dataset.SaveAttestations(path, recs)
}

// LoadAttestations reads attestation records from JSONL.
func LoadAttestations(path string) ([]AttestationRecord, error) {
	return dataset.LoadAttestations(path)
}

// AttestationIndex indexes attestation records by domain.
func AttestationIndex(recs []AttestationRecord) map[string]AttestationRecord {
	return dataset.AttestationIndex(recs)
}

// SaveAllowlist writes an allow-list in the browser's .dat format,
// atomically: a crash mid-write leaves the previous file intact instead
// of a torn database (which the browser treats as corrupted — see
// LoadAllowlist).
func SaveAllowlist(path string, list *Allowlist) error {
	err := durable.WriteFileAtomic(path, func(w io.Writer) error {
		_, werr := list.WriteTo(w)
		return werr
	})
	if err != nil {
		return fmt.Errorf("topicscope: writing %s: %w", path, err)
	}
	return nil
}

// LoadAllowlist reads an allow-list .dat file; the error is an
// *attestation.ErrCorrupted for damaged databases — feed both values to
// attestation.NewGate to reproduce the browser's behaviour.
func LoadAllowlist(path string) (*Allowlist, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("topicscope: opening %s: %w", path, err)
	}
	defer f.Close()
	return attestation.ReadAllowlist(f)
}

// NewGate builds the browser's caller gate from an allow-list load
// outcome, reproducing the §2.3 corrupted-database default-allow bug.
func NewGate(list *Allowlist, loadErr error) *Gate {
	return attestation.NewGate(list, loadErr)
}

// ---- Re-identification extension ----

// ReidentConfig / ReidentResult expose the §2.1-cited re-identification
// attack simulation (internal/reident).
type (
	ReidentConfig = reident.Config
	ReidentResult = reident.Result
)

// SimulateReident runs the cross-site re-identification attack against
// the Topics engine and reports match rates per observation epoch.
func SimulateReident(cfg ReidentConfig) *ReidentResult { return reident.Simulate(cfg) }
