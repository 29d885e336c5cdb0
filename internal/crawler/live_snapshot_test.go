package crawler

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/netmeasure/topicscope/internal/analysis"
	"github.com/netmeasure/topicscope/internal/chaos"
	"github.com/netmeasure/topicscope/internal/dataset"
	"github.com/netmeasure/topicscope/internal/durable"
)

// Satellite of the PR 5 kill matrix: the campaign now carries a live
// analysis sink, so process death must also leave the index snapshot in
// a state a resume can trust — restored + tail-folded must equal the
// from-scratch build at every record boundary.

// liveReportJSON renders the report from the journal's live index
// (snapshot restore + tail fold) — the -live path — and returns it with
// the load stats.
func liveReportJSON(t *testing.T, path string) ([]byte, *analysis.LiveStats) {
	t.Helper()
	in := &analysis.Input{Allowlist: cwAllow}
	live, st, err := analysis.LoadLiveIndex(path, in)
	if err != nil {
		t.Fatalf("LoadLiveIndex(%s): %v", path, err)
	}
	idx, err := analysis.MergeShardIndexes(in, live)
	if err != nil {
		t.Fatal(err)
	}
	if !in.AdoptIndex(idx) {
		t.Fatal("live index not adopted")
	}
	out, err := json.Marshal(analysis.Run(in))
	if err != nil {
		t.Fatal(err)
	}
	return out, st
}

// resumeAndFinishLive mirrors resumeAndFinish with the live sink
// attached: restore the snapshot, let ResumeJournal replay the salvaged
// tail through it, recrawl the rest.
func resumeAndFinishLive(t *testing.T, path string, every int) *analysis.LiveStats {
	t.Helper()
	list := cwWorld.List().Top(30)
	rankSite := make(map[int]string, len(list.Entries))
	for _, e := range list.Entries {
		rankSite[e.Rank] = e.Domain
	}
	m := durable.LoadManifest(path)

	sink, lst, err := analysis.OpenLiveSink(path, &analysis.Input{Allowlist: cwAllow})
	if err != nil {
		t.Fatalf("OpenLiveSink: %v", err)
	}
	if m != nil {
		// Checkpoints write manifest then snapshot, and crashes here are
		// injected on the append path — so whenever a manifest exists the
		// snapshot beside it must restore, reading zero journal bytes.
		if !lst.SnapshotRestored {
			t.Fatal("index snapshot beside a valid manifest did not restore")
		}
		if lst.BytesRead != 0 {
			t.Fatalf("snapshot restore read %d journal bytes, want 0", lst.BytesRead)
		}
		if int64(sink.Live().Visits()) != m.Records {
			t.Fatalf("restored sink covers %d records, manifest commits %d", sink.Live().Visits(), m.Records)
		}
	}

	skip := make(map[string]bool)
	jw, st, err := dataset.ResumeJournal(path, dataset.JournalOptions{
		CheckpointEvery: every,
		Skip:            func(rank int) bool { return skip[rankSite[rank]] },
		Observer:        sink,
	})
	if err != nil {
		t.Fatalf("ResumeJournal: %v", err)
	}
	committed := int64(0)
	if m != nil {
		committed = m.Records
	}
	if int64(sink.Live().Visits()) != committed+st.RecordsKept {
		t.Fatalf("after tail replay the sink covers %d records, want %d committed + %d salvaged",
			sink.Live().Visits(), committed, st.RecordsKept)
	}
	for site := range st.Completed {
		skip[site] = true
	}
	for _, e := range list.Entries {
		if e.Rank <= st.WatermarkRank {
			skip[e.Domain] = true
		}
	}
	if err := crawlJournal(context.Background(), jw, list, skip); err != nil {
		t.Fatalf("resumed crawl: %v", err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	return lst
}

// TestCrashResumeIndexSnapshot extends the kill matrix to the live
// index: crash before every record append, resume through the snapshot,
// and demand (a) the restored + tail-folded index yields the exact
// golden report and (b) rendering it reads O(tail + snapshot) bytes —
// zero journal bytes at the final checkpoint.
func TestCrashResumeIndexSnapshot(t *testing.T) {
	const every = 3
	list := cwWorld.List().Top(30)
	dir := t.TempDir()
	golden := goldenJournal(t, dir, list, every)
	goldenReport := reportJSON(t, golden)
	n := int64(bytes.Count(journalPayloads(t, golden), []byte("\n")))

	for k := int64(1); k < n; k++ {
		path := filepath.Join(dir, fmt.Sprintf("crash-%d.jsonl.gz", k))
		plan := chaos.CrashPlan{AfterRecords: k}
		jw, err := dataset.CreateJournal(path, dataset.JournalOptions{
			CheckpointEvery: every,
			Durable:         durable.Options{BeforeAppend: plan.BeforeAppend()},
			Observer:        analysis.NewLiveSink(path, &analysis.Input{Allowlist: cwAllow}),
		})
		if err != nil {
			t.Fatal(err)
		}
		err = crawlJournal(context.Background(), jw, list, nil)
		if err == nil {
			t.Fatalf("crashpoint %d: campaign survived its own death", k)
		}
		if !chaos.IsCrash(err) {
			t.Fatalf("crashpoint %d: unexpected error: %v", k, err)
		}
		jw.Abort()

		resumeAndFinishLive(t, path, every)

		got, st := liveReportJSON(t, path)
		if !bytes.Equal(got, goldenReport) {
			t.Fatalf("crashpoint %d: live report from restored index differs from uninterrupted run", k)
		}
		if !st.SnapshotRestored || st.TailRecords != 0 || st.BytesRead != 0 {
			t.Fatalf("crashpoint %d: final-checkpoint live read not O(snapshot): %+v", k, st)
		}
		os.Remove(path)
		os.Remove(durable.ManifestPath(path))
		os.Remove(analysis.IndexSnapshotPath(path))
		durable.RemoveFrameIndexFS(nil, path)
	}
}

// TestLiveReportReadsOnlyTail is the mid-campaign acceptance half:
// take a 200-site campaign journal whose last quarter is durable on
// disk but past the committed manifest (the crash window between
// Journal.Sync and the manifest rewrite), render the live report from
// it as-is, and assert it reads exactly the bytes past the checkpoint
// (the snapshot covers the rest) while matching the full-scan report
// over the same records.
func TestLiveReportReadsOnlyTail(t *testing.T) {
	const every = 10
	list := cwWorld.List().Top(200)
	dir := t.TempDir()
	golden := goldenJournal(t, dir, list, every)
	data, err := dataset.LoadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	visits := data.Visits

	// Re-journal the first ~3/4 (to a site-group boundary) through a
	// checkpointing writer with the live sink attached.
	cut := len(visits) * 3 / 4
	for cut < len(visits) && visits[cut].Site == visits[cut-1].Site {
		cut++
	}
	if cut == len(visits) {
		t.Fatal("no group boundary in the last quarter")
	}
	path := filepath.Join(dir, "mid.jsonl.gz")
	sink := analysis.NewLiveSink(path, &analysis.Input{Allowlist: cwAllow})
	jw, err := dataset.CreateJournal(path, dataset.JournalOptions{CheckpointEvery: every, Observer: sink})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cut; i++ {
		if err := jw.Write(&visits[i]); err != nil {
			t.Fatal(err)
		}
		if i+1 == cut || visits[i+1].Site != visits[i].Site {
			if err := jw.SiteCompleted(visits[i].Rank, visits[i].Site); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	m := durable.LoadManifest(path)
	if m == nil || m.Records != int64(cut) {
		t.Fatalf("manifest %+v does not commit the %d-record prefix", m, cut)
	}

	// Append the rest durably WITHOUT advancing the manifest — the state
	// a kill -9 leaves when it lands after the sync, before the manifest.
	j, err := durable.OpenAt(path, m.Checkpoint(), durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := cut; i < len(visits); i++ {
		payload, merr := json.Marshal(&visits[i])
		if merr != nil {
			t.Fatal(merr)
		}
		if err := j.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	size := fileSize(t, path)

	got, st := liveReportJSON(t, path)
	if !st.SnapshotRestored {
		t.Fatal("mid-campaign live report did not restore the index snapshot")
	}
	if want := size - m.Offset; st.BytesRead != want {
		t.Fatalf("live report read %d journal bytes, want exactly the %d-byte tail of %d", st.BytesRead, want, size)
	}
	if st.BytesRead >= size/3 {
		t.Fatalf("live report read %d of %d bytes — not O(tail + snapshot)", st.BytesRead, size)
	}
	if want := int64(len(visits) - cut); st.TailRecords != want {
		t.Fatalf("live report folded %d tail records, want %d", st.TailRecords, want)
	}

	// Same records, same report: the full scan over the crashed journal
	// (committed prefix + salvageable tail) is the oracle.
	if want := reportJSON(t, path); !bytes.Equal(got, want) {
		t.Fatal("live report differs from the full-scan report over the same journal")
	}
}
