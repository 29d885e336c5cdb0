package topicscope_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/netmeasure/topicscope"
	"github.com/netmeasure/topicscope/internal/crawler"
)

// TestLiveReportMatchesPostHoc pins the PR's acceptance criterion at
// the public API surface: rendering the report from a campaign journal
// the way `topics-report -live` does — restore the checkpoint index
// snapshot, fold the (empty, at the final checkpoint) tail, re-run the
// attestation sweep over the live caller set — produces JSON and text
// byte-identical to the report the campaign itself computed post hoc,
// while reading O(tail + snapshot) journal bytes: zero, here.
func TestLiveReportMatchesPostHoc(t *testing.T) {
	const (
		seed      = uint64(5)
		sites     = 400
		chaosSeed = uint64(2)
	)
	dir := t.TempDir()
	path := filepath.Join(dir, "campaign.jsonl.gz")
	results, err := topicscope.Campaign{
		Seed:            seed,
		Sites:           sites,
		Workers:         8,
		OutputPath:      path,
		CheckpointEvery: 25,
		Chaos:           true,
		ChaosSeed:       chaosSeed,
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var postHoc bytes.Buffer
	if err := results.Report.WriteJSON(&postHoc); err != nil {
		t.Fatal(err)
	}

	// The -live path: regenerate the same world, load the live index,
	// sweep attestations against the live caller set under the same
	// chaos weather, assemble, render.
	world := topicscope.GenerateWorld(topicscope.WorldConfig{Seed: seed, NumSites: sites})
	server := topicscope.NewServer(world, nil)
	allow := topicscope.NewAllowlist(world.Catalog.AllowedDomains()...)
	in := &topicscope.AnalysisInput{Allowlist: allow}
	live, st, err := topicscope.LoadLiveAnalysisIndex(path, in)
	if err != nil {
		t.Fatal(err)
	}
	if !st.SnapshotRestored {
		t.Fatal("final-checkpoint journal did not restore its index snapshot")
	}
	if st.TailRecords != 0 || st.BytesRead != 0 {
		t.Fatalf("closed journal re-read %d tail records / %d bytes, want O(snapshot): zero", st.TailRecords, st.BytesRead)
	}

	// The live caller set must be exactly what the campaign's post-hoc
	// sweep derived from the full dataset.
	if want := crawler.CallerDomains(results.Data); !reflect.DeepEqual(live.Callers(), want) {
		t.Fatalf("live caller set %v\nwant %v", live.Callers(), want)
	}

	client := server.Client()
	topicscope.EnableChaos(client, topicscope.DefaultChaos(chaosSeed))
	cr := topicscope.NewCrawler(topicscope.CrawlerConfig{Client: client, ReferenceAllowlist: allow})
	domains := allow.Domains()
	domains = append(domains, live.Callers()...)
	in.Attestations = topicscope.AttestationIndex(cr.CheckAttestations(context.Background(), domains))

	if !topicscope.AdoptAnalysisIndex(in, live.Snapshot(in)) {
		t.Fatal("live index not adopted")
	}
	report := topicscope.Analyze(in)

	var liveJSON bytes.Buffer
	if err := report.WriteJSON(&liveJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveJSON.Bytes(), postHoc.Bytes()) {
		t.Fatal("live report JSON differs from the campaign's post-hoc report")
	}
	if report.Render() != results.Report.Render() {
		t.Fatal("live report text differs from the campaign's post-hoc report")
	}

	// Sanity on the layout the tentpole added: snapshot and frame index
	// sit beside the journal and the frame index seeks into it.
	if _, err := os.Stat(path + ".idx"); err != nil {
		t.Fatalf("index snapshot missing: %v", err)
	}
	fi := topicscope.LoadFrameIndex(path)
	if fi == nil || len(fi.Entries) == 0 {
		t.Fatal("frame index missing or empty beside a checkpointed journal")
	}

	// Range reads ride the frame index: re-reading only the records past
	// the second-to-last boundary touches a fraction of the file.
	if len(fi.Entries) > 1 {
		from := fi.Entries[len(fi.Entries)-2].Records
		n := int64(0)
		rst, err := topicscope.ReadRecordRange(path, from, -1, func(v *topicscope.Visit) error {
			n++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(live.Visits()) - from; n != want {
			t.Fatalf("range read delivered %d records, want %d", n, want)
		}
		if rst.SeekOffset == 0 {
			t.Fatal("range read did not seek via the frame index")
		}
		if full := fileSize(t, path); rst.BytesRead >= full {
			t.Fatalf("range read %d of %d bytes — the seek bought nothing", rst.BytesRead, full)
		}
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}
