package topicscope_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/netmeasure/topicscope"
)

func TestCampaignEndToEnd(t *testing.T) {
	out := filepath.Join(t.TempDir(), "crawl.jsonl")
	results, err := topicscope.Campaign{
		Seed:       3,
		Sites:      800,
		Workers:    8,
		OutputPath: out,
	}.Run(context.Background())
	if err != nil {
		t.Fatalf("Campaign.Run: %v", err)
	}
	if results.Stats.Attempted != 800 {
		t.Errorf("attempted = %d", results.Stats.Attempted)
	}
	if results.Report == nil || results.Report.Table1.Allowed != 193 {
		t.Errorf("report incomplete: %+v", results.Report)
	}
	text := results.Report.Render()
	for _, section := range []string{"Table 1", "Figure 2", "Figure 3", "Figure 5", "Figure 6", "Figure 7", "§4", "§3"} {
		if !strings.Contains(text, section) {
			t.Errorf("report missing %q", section)
		}
	}

	// The streamed dataset round-trips and matches the in-memory copy.
	loaded, err := topicscope.LoadDataset(out)
	if err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	if loaded.Len() != results.Data.Len() {
		t.Errorf("streamed %d records, collected %d", loaded.Len(), results.Data.Len())
	}
}

func TestCampaignEnforceAblation(t *testing.T) {
	results, err := topicscope.Campaign{Seed: 3, Sites: 400, Workers: 8, Enforce: true}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t1 := results.Report.Table1
	if t1.AANotAllowed != 0 || t1.BANotAllowed != 0 {
		t.Errorf("healthy gate must suppress anomalous callers: %+v", t1)
	}
}

func TestCampaignCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (topicscope.Campaign{Seed: 1, Sites: 200}).Run(ctx); err == nil {
		t.Error("cancelled campaign succeeded")
	}
}

// cancelOn is a slog handler that cancels a context when a record with
// the given message is logged.
type cancelOn struct {
	msg    string
	cancel context.CancelFunc
}

func (h cancelOn) Enabled(context.Context, slog.Level) bool { return true }
func (h cancelOn) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h cancelOn) WithGroup(string) slog.Handler            { return h }

func (h cancelOn) Handle(_ context.Context, r slog.Record) error {
	if r.Message == h.msg {
		h.cancel()
	}
	return nil
}

// TestCampaignCancelledSweep cancels a campaign after its crawl has
// finished, before the attestation sweep: every check would come back a
// fetch error, so Run must return the cancellation rather than a Table 1
// built from them.
func TestCampaignCancelledSweep(t *testing.T) {
	for _, journaled := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		c := topicscope.Campaign{
			Seed: 3, Sites: 100, Workers: 4,
			Logger: slog.New(cancelOn{msg: "crawl finished", cancel: cancel}),
		}
		if journaled {
			c.OutputPath = filepath.Join(t.TempDir(), "crawl.jsonl")
		}
		res, err := c.Run(ctx)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("journaled=%v: Run returned results=%v, err=%v; want context.Canceled", journaled, res != nil, err)
		}
	}
}

// TestJournaledCampaignFoldsOnce pins the journaled campaign's one fold:
// the journal's live sink folds every record once, the report reads that
// fold instead of indexing the collected records again, and it equals
// the report of the same campaign run without a journal.
func TestJournaledCampaignFoldsOnce(t *testing.T) {
	c := topicscope.Campaign{Seed: 3, Sites: 300, Workers: 4}
	mem, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	c.OutputPath = filepath.Join(t.TempDir(), "crawl.jsonl")
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Metrics.Snapshot()
	if got, want := snap.Counter("analysis_live_visits_folded_total"), int64(res.Data.Len()); got != want {
		t.Errorf("live sink folded %d records, campaign visited %d", got, want)
	}
	if got := snap.Counter("analysis_visits_indexed_total"); got != 0 {
		t.Errorf("journaled campaign indexed %d collected records a second time", got)
	}
	var a, b bytes.Buffer
	if err := mem.Report.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := res.Report.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("journaled campaign's report differs from the in-memory campaign's")
	}
}

func TestFacadeArtifacts(t *testing.T) {
	dir := t.TempDir()

	// Allow-list round trip through the façade.
	list := topicscope.NewAllowlist("criteo.com", "teads.tv")
	path := filepath.Join(dir, "allow.dat")
	if err := topicscope.SaveAllowlist(path, list); err != nil {
		t.Fatal(err)
	}
	got, err := topicscope.LoadAllowlist(path)
	if err != nil || got.Len() != 2 {
		t.Fatalf("LoadAllowlist: %v, %v", got, err)
	}
	gate := topicscope.NewGate(got, nil)
	if !gate.Check("criteo.com").Allowed || gate.Check("x.example").Allowed {
		t.Error("gate decisions wrong")
	}

	// Corruption flows through to the default-allow gate.
	raw, _ := os.ReadFile(path)
	raw[len(raw)-1] ^= 0xFF
	os.WriteFile(path, raw, 0o644)
	broken, err := topicscope.LoadAllowlist(path)
	gate = topicscope.NewGate(broken, err)
	if !gate.Corrupted() || !gate.Check("x.example").Allowed {
		t.Error("corrupted database must default-allow")
	}
}

func TestFacadeEngine(t *testing.T) {
	tx := topicscope.NewTaxonomy()
	if tx.Len() < 300 {
		t.Errorf("taxonomy size %d", tx.Len())
	}
	cl := topicscope.NewClassifier(tx)
	eng := topicscope.NewEngine(tx, cl, topicscope.EngineConfig{Seed: 1, NoNoise: true})
	eng.RecordVisit("news-site.com")
	if got := eng.BrowsingTopics("adv.com", "pub.com"); len(got) != 0 {
		t.Errorf("fresh engine returned %v", got)
	}
	if topicscope.RegistrableDomain("www.foo.co.uk") != "foo.co.uk" {
		t.Error("RegistrableDomain facade broken")
	}
}

// TestReportJSON checks the machine-readable report export parses back.
func TestReportJSON(t *testing.T) {
	results, err := topicscope.Campaign{Seed: 5, Sites: 300, Workers: 8}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := results.Report.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("report JSON invalid: %v", err)
	}
	for _, key := range []string{"Overview", "Table1", "Figure2", "Figure3", "Anomaly", "Figure5", "Figure6", "Figure7", "Enrolment", "CallTypes", "Languages"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("report JSON missing %q", key)
		}
	}
}

// TestTCPPipeline exercises the decomposed deployment: a real TCP
// listener serving the synthetic web (topics-serve) crawled through the
// dial-everything-to-one-address client (topics-crawl -connect).
func TestTCPPipeline(t *testing.T) {
	world := topicscope.GenerateWorld(topicscope.WorldConfig{Seed: 21, NumSites: 250})
	server := topicscope.NewServer(world, nil)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: server}
	go hs.Serve(ln) //nolint:errcheck // closed by Shutdown
	defer hs.Shutdown(context.Background())

	allow := topicscope.NewAllowlist(world.Catalog.AllowedDomains()...)
	client := topicscope.NewTCPClient(world, ln.Addr().String(), 5*time.Second)
	cr := topicscope.NewCrawler(topicscope.CrawlerConfig{
		Client:             client,
		ReferenceAllowlist: allow,
		Workers:            8,
		Collect:            true,
	})
	res, err := cr.Run(context.Background(), world.List())
	if err != nil {
		t.Fatalf("TCP crawl: %v", err)
	}
	if res.Stats.Succeeded == 0 || res.Stats.CallsAfter == 0 {
		t.Fatalf("TCP crawl produced nothing: %s", res.Stats)
	}

	// And it must be byte-identical to an in-process crawl of the same
	// world: the transport must not affect the measurements.
	inproc := topicscope.NewCrawler(topicscope.CrawlerConfig{
		Client:             topicscope.NewServer(world, nil).Client(),
		ReferenceAllowlist: allow,
		Workers:            3,
		Collect:            true,
	})
	res2, err := inproc.Run(context.Background(), world.List())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Data.Visits, res2.Data.Visits) {
		t.Error("TCP and in-process crawls disagree")
	}

	// Attestation checks also work over TCP.
	recs := cr.CheckAttestations(context.Background(), []string{"criteo.com", "missing.example"})
	if len(recs) != 2 {
		t.Fatalf("attestation records: %d", len(recs))
	}
	for _, r := range recs {
		if r.Domain == "criteo.com" && !r.Attested() {
			t.Error("criteo.com not attested over TCP")
		}
	}
}

// TestHTTPSCrawl runs a whole campaign over TLS (HTTP/2 via ALPN) and
// checks the measurements match the plaintext crawl of the same world —
// the transport must be invisible to the instrumentation.
func TestHTTPSCrawl(t *testing.T) {
	world := topicscope.GenerateWorld(topicscope.WorldConfig{Seed: 23, NumSites: 200})
	server := topicscope.NewServer(world, nil)
	allow := topicscope.NewAllowlist(world.Catalog.AllowedDomains()...)

	ln, ca, err := server.ListenTLS("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: server}
	go hs.Serve(ln) //nolint:errcheck // closed below
	defer hs.Close()

	secure := topicscope.NewCrawler(topicscope.CrawlerConfig{
		Client:             topicscope.NewTLSClient(world, ln.Addr().String(), ca, 5*time.Second),
		ReferenceAllowlist: allow,
		Workers:            8,
		Collect:            true,
		Scheme:             "https",
	})
	sres, err := secure.Run(context.Background(), world.List())
	if err != nil {
		t.Fatalf("HTTPS crawl: %v", err)
	}

	plain := topicscope.NewCrawler(topicscope.CrawlerConfig{
		Client:             server.Client(),
		ReferenceAllowlist: allow,
		Workers:            8,
		Collect:            true,
	})
	pres, err := plain.Run(context.Background(), world.List())
	if err != nil {
		t.Fatal(err)
	}

	if sres.Stats.Succeeded != pres.Stats.Succeeded ||
		sres.Stats.Accepted != pres.Stats.Accepted ||
		sres.Stats.CallsBefore != pres.Stats.CallsBefore ||
		sres.Stats.CallsAfter != pres.Stats.CallsAfter {
		t.Errorf("HTTPS and HTTP crawls disagree:\n https: %s\n http:  %s",
			sres.Stats, pres.Stats)
	}

	// Call records are identical apart from transport.
	if len(sres.Data.Visits) != len(pres.Data.Visits) {
		t.Fatalf("visit counts differ: %d vs %d", len(sres.Data.Visits), len(pres.Data.Visits))
	}
	for i := range sres.Data.Visits {
		a, b := sres.Data.Visits[i], pres.Data.Visits[i]
		if len(a.Calls) != len(b.Calls) {
			t.Fatalf("site %s: %d vs %d calls", a.Site, len(a.Calls), len(b.Calls))
		}
		for j := range a.Calls {
			ca, cb := a.Calls[j], b.Calls[j]
			if ca.Caller != cb.Caller || ca.Type != cb.Type || ca.ContextOrigin != cb.ContextOrigin {
				t.Fatalf("site %s call %d differs: %+v vs %+v", a.Site, j, ca, cb)
			}
		}
	}
}
