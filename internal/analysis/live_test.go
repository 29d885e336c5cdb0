package analysis

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/netmeasure/topicscope/internal/attestation"
	"github.com/netmeasure/topicscope/internal/chaos"
	"github.com/netmeasure/topicscope/internal/crawler"
	"github.com/netmeasure/topicscope/internal/dataset"
	"github.com/netmeasure/topicscope/internal/durable"
	"github.com/netmeasure/topicscope/internal/webserver"
	"github.com/netmeasure/topicscope/internal/webworld"
)

// chaosFixture is a 1k-site chaos campaign — small enough that folding
// every prefix against a from-scratch oracle stays cheap, faulted so
// the fold sees retries, partial visits and every error class.
var (
	chaosOnce    sync.Once
	chaosFixture *Input
)

func chaosInput(t *testing.T) *Input {
	t.Helper()
	chaosOnce.Do(func() {
		world := webworld.Generate(webworld.Config{Seed: 11, NumSites: 1000})
		server := webserver.New(world, nil)
		allow := attestation.NewAllowlist(world.Catalog.AllowedDomains()...)
		client := server.Client()
		client.Transport = chaos.NewInjector(webworld.DefaultChaos(3), client.Transport)
		c := crawler.New(crawler.Config{
			Client:             client,
			ReferenceAllowlist: allow,
			Workers:            8,
			Collect:            true,
		})
		res, err := c.Run(context.Background(), world.List())
		if err != nil {
			panic(err)
		}
		domains := allow.Domains()
		domains = append(domains, crawler.CallerDomains(res.Data)...)
		recs := c.CheckAttestations(context.Background(), domains)
		chaosFixture = &Input{
			Data:         res.Data,
			Allowlist:    allow,
			Attestations: dataset.AttestationIndex(recs),
		}
	})
	return chaosFixture
}

// indexComparisons enumerates every precomputed field of a finalized
// Index for DeepEqual checks (the etld cache is deliberately excluded:
// two equal indexes may have warmed it differently).
func indexComparisons(got, ref *Index) []struct {
	name     string
	got, ref any
} {
	return []struct {
		name     string
		got, ref any
	}{
		{"called", got.called, ref.called},
		{"present", got.present, ref.present},
		{"callers", got.callers, ref.callers},
		{"aaAllowlist", got.aaAllowlist, ref.aaAllowlist},
		{"overview", got.overview, ref.overview},
		{"reliability", got.reliability, ref.reliability},
		{"table1", got.table1, ref.table1},
		{"anomaly", got.anomaly, ref.anomaly},
		{"figure7", got.figure7, ref.figure7},
		{"callTypes", got.callTypes, ref.callTypes},
		{"languages", got.languages, ref.languages},
		{"enrolment", got.enrolment, ref.enrolment},
		{"trajectory", got.trajectory, ref.trajectory},
	}
}

func assertIndexEqual(t *testing.T, label string, got, ref *Index) {
	t.Helper()
	for _, cmp := range indexComparisons(got, ref) {
		if !reflect.DeepEqual(cmp.got, cmp.ref) {
			t.Fatalf("%s: %s diverges from the from-scratch build\ngot: %+v\nref: %+v",
				label, cmp.name, cmp.got, cmp.ref)
		}
	}
}

// TestIncrementalIndexParity is the fold oracle: after every single
// record of the chaos campaign, the incrementally folded index must
// deep-equal a from-scratch BuildIndex over the same prefix — Fold is
// add, and add order is the journal's append order, so there is no
// prefix at which the two can legally differ. The full campaign then
// pins byte-identical report JSON.
func TestIncrementalIndexParity(t *testing.T) {
	in := chaosInput(t)
	visits := in.Data.Visits
	if len(visits) < 500 {
		t.Fatalf("fixture too small: %d visits", len(visits))
	}

	live := NewLiveIndex(&Input{Allowlist: in.Allowlist})
	for p := 1; p <= len(visits); p++ {
		live.Fold(&visits[p-1])
		got := live.Snapshot(in)
		prefixIn := &Input{
			Data:         &dataset.Dataset{Visits: visits[:p]},
			Allowlist:    in.Allowlist,
			Attestations: in.Attestations,
		}
		assertIndexEqual(t, "prefix "+strconv.Itoa(p), got, prefixIn.Index())
	}
	if live.Visits() != len(visits) {
		t.Fatalf("folded %d visits, want %d", live.Visits(), len(visits))
	}

	// Full campaign: the report computed from the folded index must be
	// byte-identical to the one computed from the batch build.
	liveRun := &Input{Allowlist: in.Allowlist, Attestations: in.Attestations}
	if !liveRun.AdoptIndex(live.Snapshot(liveRun)) {
		t.Fatal("live index not adopted")
	}
	refRun := &Input{Data: in.Data, Allowlist: in.Allowlist, Attestations: in.Attestations}
	got, err := json.Marshal(Run(liveRun))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(Run(refRun))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("full-campaign report from the folded index differs from the batch build")
	}
}

// TestLiveIndexMergeProperty is satellite 4: folding records in rank
// (append) order versus merging per-shard live indexes built from a
// RANDOM partition, merged in a RANDOM order, must yield identical
// section output — the live fold and the distributed merge are two
// routes to one accumulator.
func TestLiveIndexMergeProperty(t *testing.T) {
	in := chaosInput(t)
	visits := in.Data.Visits

	ref := NewLiveIndex(&Input{Allowlist: in.Allowlist})
	for i := range visits {
		ref.Fold(&visits[i])
	}
	refIdx := ref.Snapshot(in)

	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0x11f7e))
		k := 1 + rng.IntN(6)
		assign := make([][]int, k)
		for i := range visits {
			w := rng.IntN(k)
			assign[w] = append(assign[w], i)
		}

		lives := make([]*LiveIndex, k)
		var wg sync.WaitGroup
		for w := 0; w < k; w++ {
			lives[w] = NewLiveIndex(&Input{Allowlist: in.Allowlist})
			wg.Add(1)
			go func(l *LiveIndex, idxs []int) {
				defer wg.Done()
				for _, i := range idxs {
					l.Fold(&visits[i])
				}
			}(lives[w], assign[w])
		}
		wg.Wait()

		order := rng.Perm(k)
		parts := make([]*LiveIndex, 0, k)
		for _, j := range order {
			parts = append(parts, lives[j])
		}
		merged := &Input{Allowlist: in.Allowlist, Attestations: in.Attestations}
		idx, err := MergeShardIndexes(merged, parts...)
		if err != nil {
			t.Fatal(err)
		}
		assertIndexEqual(t, "trial "+strconv.Itoa(trial), idx, refIdx)
	}
}

// writeJournal writes the given visits through a checkpointed journal
// with the sink attached, completing each site group as the crawler
// would, and returns the still-open writer.
func writeJournal(t testing.TB, path string, visits []dataset.Visit, every int, sink *LiveSink) *dataset.JournalWriter {
	t.Helper()
	jw, err := dataset.CreateJournal(path, dataset.JournalOptions{
		CheckpointEvery: every,
		Observer:        sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	writeVisits(t, jw, visits)
	return jw
}

// writeVisits appends visits, completing each site group.
func writeVisits(t testing.TB, jw *dataset.JournalWriter, visits []dataset.Visit) {
	t.Helper()
	for i := range visits {
		if err := jw.Write(&visits[i]); err != nil {
			t.Fatal(err)
		}
		if i+1 == len(visits) || visits[i+1].Site != visits[i].Site {
			if err := jw.SiteCompleted(visits[i].Rank, visits[i].Site); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// finishJournal ends a campaign the way the crawler does: a final Flush
// checkpoint, then Close.
func finishJournal(t testing.TB, jw *dataset.JournalWriter) {
	t.Helper()
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
}

// foldJournal journals the given visits with a live sink attached,
// finishes the campaign, and returns the sink.
func foldJournal(t testing.TB, path string, visits []dataset.Visit, every int, liveIn *Input) *LiveSink {
	t.Helper()
	sink := NewLiveSink(path, liveIn)
	finishJournal(t, writeJournal(t, path, visits, every, sink))
	return sink
}

// TestLiveSnapshotRoundTrip pins the .idx codec: the snapshot a sink
// serialized at the final checkpoint restores to an accumulator whose
// finalized index deep-equals the batch build, costs zero tail bytes to
// load, and keeps folding correctly afterwards.
func TestLiveSnapshotRoundTrip(t *testing.T) {
	in := chaosInput(t)
	visits := in.Data.Visits
	split := len(visits) * 3 / 4
	path := filepath.Join(t.TempDir(), "live.jsonl.gz")
	foldJournal(t, path, visits[:split], 7, &Input{Allowlist: in.Allowlist})

	live, info := LoadIndexSnapshot(path, &Input{Allowlist: in.Allowlist})
	if live == nil {
		t.Fatal("snapshot did not restore")
	}
	if info.Visits != split || live.Visits() != split {
		t.Fatalf("restored %d visits (info %d), want %d", live.Visits(), info.Visits, split)
	}

	prefixIn := &Input{
		Data:         &dataset.Dataset{Visits: visits[:split]},
		Allowlist:    in.Allowlist,
		Attestations: in.Attestations,
	}
	assertIndexEqual(t, "restored snapshot", live.Snapshot(in), prefixIn.Index())

	// The accumulator keeps folding after a restore: finishing the
	// remaining visits must converge to the full-campaign index.
	for i := split; i < len(visits); i++ {
		live.Fold(&visits[i])
	}
	fullIn := &Input{Data: in.Data, Allowlist: in.Allowlist, Attestations: in.Attestations}
	assertIndexEqual(t, "restored+folded tail", live.Snapshot(in), fullIn.Index())

	// loadLive over the same journal reads zero tail bytes: everything
	// was committed and snapshotted.
	idx, st, err := loadLive(path, &Input{Allowlist: in.Allowlist, Attestations: in.Attestations})
	if err != nil {
		t.Fatal(err)
	}
	if !st.SnapshotRestored || st.TailRecords != 0 || st.BytesRead != 0 {
		t.Fatalf("final-checkpoint loadLive stats %+v, want restored snapshot and an empty tail", st)
	}
	assertIndexEqual(t, "loadLive", idx, prefixIn.Index())
}

// TestLiveSnapshotCorruptionDegrades is the torn-.idx half of satellite
// 3: a truncated, corrupt, version-skewed or mismatched snapshot must
// degrade every reader to a full folding scan — same result, more
// bytes, never an error.
func TestLiveSnapshotCorruptionDegrades(t *testing.T) {
	in := chaosInput(t)
	visits := in.Data.Visits[:400]
	ref := &Input{
		Data:         &dataset.Dataset{Visits: visits},
		Allowlist:    in.Allowlist,
		Attestations: in.Attestations,
	}

	corruptions := []struct {
		name    string
		corrupt func(t *testing.T, idxPath string)
	}{
		{"truncated", func(t *testing.T, p string) {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbage", func(t *testing.T, p string) {
			if err := os.WriteFile(p, []byte("not json at all"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"flipped-byte", func(t *testing.T, p string) {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			// Flip the version byte at the head of the payload.
			header, _ := framedSegment(t, data)
			data[len(header)+1] ^= 0xff
			os.WriteFile(p, data, 0o644) //nolint:errcheck // test corruption
		}},
		{"body-bit-flip", func(t *testing.T, p string) {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			// One bit of the first visit's site name in the string table,
			// or of a string after it, chosen so the payload still
			// decodes: the header still matches the manifest, only the
			// frame CRC knows.
			_, payload := framedSegment(t, data)
			from := bytes.Index(payload, []byte(visits[0].Site))
			if from < 0 {
				t.Fatal("no site name in the snapshot")
			}
			for i := from; ; i++ {
				if i == len(payload) {
					t.Fatal("no bit flip in the string table decodes")
				}
				flipped := append([]byte(nil), payload...)
				flipped[i] ^= 0x01
				if _, _, err := decodeSegments(durable.AppendFrame(nil, flipped)); err == nil {
					payload[i] ^= 0x01
					break
				}
			}
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"version-1", func(t *testing.T, p string) {
			// A pre-segment snapshot: one bare JSON document.
			if err := os.WriteFile(p, append(jsonSegment(t, p, 1), '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"version-2", func(t *testing.T, p string) {
			// A JSON segment, correctly framed and matching the manifest.
			if err := os.WriteFile(p, durable.AppendFrame(nil, jsonSegment(t, p, 2)), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"version-4", func(t *testing.T, p string) {
			// A binary segment of a later schema, correctly framed.
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			_, payload := framedSegment(t, data)
			payload[0] = LiveSnapshotVersion + 1
			if err := os.WriteFile(p, durable.AppendFrame(nil, payload), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"missing", func(t *testing.T, p string) {
			if err := os.Remove(p); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "live.jsonl.gz")
			foldJournal(t, path, visits, 5, &Input{Allowlist: in.Allowlist})
			tc.corrupt(t, IndexSnapshotPath(path))

			if live, _ := LoadIndexSnapshot(path, &Input{Allowlist: in.Allowlist}); live != nil {
				t.Fatal("corrupt snapshot restored")
			}
			idx, st, err := loadLive(path, &Input{Allowlist: in.Allowlist, Attestations: in.Attestations})
			if err != nil {
				t.Fatalf("corrupt snapshot must degrade, not error: %v", err)
			}
			if st.SnapshotRestored {
				t.Fatal("stats claim a snapshot restore after corruption")
			}
			if st.TailRecords != int64(len(visits)) {
				t.Fatalf("degraded scan folded %d records, want %d", st.TailRecords, len(visits))
			}
			assertIndexEqual(t, tc.name, idx, ref.Index())

			// OpenLiveSink degrades the same way: rebuild the committed
			// prefix by scan, ready to keep folding.
			sink, lst, err := OpenLiveSink(path, &Input{Allowlist: in.Allowlist})
			if err != nil {
				t.Fatal(err)
			}
			if lst.SnapshotRestored {
				t.Fatal("sink claims a snapshot restore after corruption")
			}
			if got := sink.Live().Visits(); got != len(visits) {
				t.Fatalf("rebuilt sink folded %d visits, want %d", got, len(visits))
			}
		})
	}

	// A snapshot folded under a different allow-list must not restore:
	// the allowed bit is baked in at fold time.
	path := filepath.Join(t.TempDir(), "live.jsonl.gz")
	foldJournal(t, path, visits, 5, &Input{Allowlist: in.Allowlist})
	other := attestation.NewAllowlist("unrelated.example")
	if live, _ := LoadIndexSnapshot(path, &Input{Allowlist: other}); live != nil {
		t.Fatal("snapshot restored under a different allow-list")
	}
}

// framedSegment splits a one-segment .idx into its frame header line and
// the payload, which alias data.
func framedSegment(t *testing.T, data []byte) (header, payload []byte) {
	t.Helper()
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 || len(data) < nl+2 || data[len(data)-1] != '\n' {
		t.Fatal("no framed segment in the snapshot")
	}
	return data[:nl], data[nl+1 : len(data)-1]
}

// jsonSegment is a JSON snapshot document of the given schema version
// whose header matches the journal's manifest and allow-list — a
// snapshot an earlier build would have restored.
func jsonSegment(t *testing.T, idxPath string, version int) []byte {
	t.Helper()
	journal := strings.TrimSuffix(idxPath, ".idx")
	m := durable.LoadManifest(journal)
	if m == nil {
		t.Fatal("no manifest")
	}
	doc, err := json.Marshal(map[string]any{
		"version":       version,
		"journal":       filepath.Base(journal),
		"records":       m.Records,
		"payload_crc":   m.PayloadCRC,
		"allowlist_crc": allowlistCRC(chaosInput(t).Allowlist),
		"visits":        m.Records,
	})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// crashResumeJournal journals visits through a live sink, "crashes"
// halfway (no final checkpoint), reopens with OpenLiveSink +
// ResumeJournal — asserting the snapshot restored without reading the
// journal and the salvaged tail replayed through the sink — finishes
// the remaining sites and ends with Flush + Close. It returns the
// resumed sink.
func crashResumeJournal(t *testing.T, path string, visits []dataset.Visit, every int, allow *attestation.Allowlist) *LiveSink {
	t.Helper()
	// Phase 1: write a prefix and abort without the final checkpoint —
	// some committed sites, some salvageable tail.
	jw, err := dataset.CreateJournal(path, dataset.JournalOptions{
		CheckpointEvery: every,
		Observer:        NewLiveSink(path, &Input{Allowlist: allow}),
	})
	if err != nil {
		t.Fatal(err)
	}
	cut := len(visits) / 2
	written := 0
	for i := 0; i < len(visits) && written < cut; i++ {
		if err := jw.Write(&visits[i]); err != nil {
			t.Fatal(err)
		}
		written++
		if i+1 == len(visits) || visits[i+1].Site != visits[i].Site {
			if err := jw.SiteCompleted(visits[i].Rank, visits[i].Site); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := jw.Abort(); err != nil {
		t.Fatal(err)
	}
	m := durable.LoadManifest(path)
	if m == nil || m.Records == 0 {
		t.Fatal("aborted journal has no checkpoint to resume from")
	}

	// Phase 2: resume. The sink restores the snapshot (O(snapshot), no
	// journal bytes); ResumeJournal replays the salvaged tail through it.
	sink, lst, err := OpenLiveSink(path, &Input{Allowlist: allow})
	if err != nil {
		t.Fatal(err)
	}
	if !lst.SnapshotRestored {
		t.Fatal("resume did not restore the index snapshot")
	}
	if lst.BytesRead != 0 {
		t.Fatalf("snapshot restore read %d journal bytes, want 0", lst.BytesRead)
	}
	if int64(sink.Live().Visits()) != m.Records {
		t.Fatalf("restored sink covers %d records, manifest commits %d", sink.Live().Visits(), m.Records)
	}
	jw2, st, err := dataset.ResumeJournal(path, dataset.JournalOptions{CheckpointEvery: every, Observer: sink})
	if err != nil {
		t.Fatal(err)
	}
	if int64(sink.Live().Visits()) != m.Records+st.RecordsKept {
		t.Fatalf("after tail replay the sink covers %d records, want %d",
			sink.Live().Visits(), m.Records+st.RecordsKept)
	}

	// Finish the remaining records, skipping sites already durable.
	for i := 0; i < len(visits); i++ {
		if visits[i].Rank <= st.WatermarkRank || st.Completed[visits[i].Site] {
			continue
		}
		if err := jw2.Write(&visits[i]); err != nil {
			t.Fatal(err)
		}
		if i+1 == len(visits) || visits[i+1].Site != visits[i].Site {
			if err := jw2.SiteCompleted(visits[i].Rank, visits[i].Site); err != nil {
				t.Fatal(err)
			}
		}
	}
	finishJournal(t, jw2)
	return sink
}

// TestLiveSinkResumeAcrossCheckpoint pins the resume protocol end to
// end at the dataset layer: fold a prefix through a sink, "crash" (no
// final checkpoint), reopen with OpenLiveSink + ResumeJournal, finish,
// and demand the final index equals the uninterrupted build.
func TestLiveSinkResumeAcrossCheckpoint(t *testing.T) {
	in := chaosInput(t)
	visits := in.Data.Visits[:600]
	path := filepath.Join(t.TempDir(), "resume.jsonl.gz")
	sink := crashResumeJournal(t, path, visits, 4, in.Allowlist)

	full := &Input{
		Data:         &dataset.Dataset{Visits: visits},
		Allowlist:    in.Allowlist,
		Attestations: in.Attestations,
	}
	assertIndexEqual(t, "resumed sink", sink.Live().Snapshot(in), full.Index())
}

// manifestFaultFS fails every manifest read, as a read fault injected at
// the storage seam would.
type manifestFaultFS struct{ durable.FS }

func (f manifestFaultFS) ReadFile(path string) ([]byte, error) {
	if chaos.ClassifyArtifact(path) == chaos.PathManifest {
		return nil, errors.New("injected manifest read fault")
	}
	return f.FS.ReadFile(path)
}

// TestOpenLiveSinkReadsManifestThroughFS pins OpenLiveSink to its
// storage seam: when the manifest cannot be read through in.FS, the
// resume through the same seam replays the journal from byte 0, so the
// sink must start empty rather than fold the committed prefix it would
// find on the real disk — or the replay would count every record of it
// twice.
func TestOpenLiveSinkReadsManifestThroughFS(t *testing.T) {
	in := chaosInput(t)
	visits := in.Data.Visits[:300]
	path := filepath.Join(t.TempDir(), "seam.jsonl.gz")
	foldJournal(t, path, visits, 5, &Input{Allowlist: in.Allowlist})

	fsys := manifestFaultFS{FS: durable.OS}
	sink, st, err := OpenLiveSink(path, &Input{Allowlist: in.Allowlist, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	if got := sink.Live().Visits(); got != 0 || st.TailRecords != 0 || st.SnapshotRestored {
		t.Fatalf("sink holds %d records (%d folded from the journal, restored %v) behind a manifest its FS cannot read",
			got, st.TailRecords, st.SnapshotRestored)
	}
	jw, _, err := dataset.ResumeJournal(path, dataset.JournalOptions{
		CheckpointEvery: 5,
		Observer:        sink,
		Durable:         durable.Options{FS: fsys},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sink.Live().Visits(); got != len(visits) {
		t.Fatalf("after the resume's replay the sink holds %d records, want %d", got, len(visits))
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLiveSnapshotHistoryIndependence pins the compaction contract: a
// finished campaign (Flush + Close) leaves one full segment encoding
// its final state, so the .idx bytes depend on the records alone — not
// on the checkpoint cadence, nor on a crash and resume along the way.
func TestLiveSnapshotHistoryIndependence(t *testing.T) {
	in := chaosInput(t)
	visits := in.Data.Visits[:600]
	idx := func(path string) []byte {
		t.Helper()
		data, err := os.ReadFile(IndexSnapshotPath(path))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	path := func() string { return filepath.Join(t.TempDir(), "history.jsonl.gz") }

	resumed := path()
	crashResumeJournal(t, resumed, visits, 4, in.Allowlist)
	want := idx(resumed)
	segs, log, err := decodeSegments(want)
	if err != nil || len(segs) != 1 || log.trailing {
		t.Fatalf("finished campaign left %d segments (trailing %v, err %v), want one full segment", len(segs), log.trailing, err)
	}
	if segs[0].Records != int64(len(visits)) {
		t.Fatalf("full segment covers %d records, want %d", segs[0].Records, len(visits))
	}
	for _, every := range []int{5, 50} {
		p := path()
		foldJournal(t, p, visits, every, &Input{Allowlist: in.Allowlist})
		if !bytes.Equal(idx(p), want) {
			t.Fatalf("cadence %d: .idx differs from the crash-resumed campaign's", every)
		}
	}

	// A log lost mid-campaign: the next append fails, and the compaction
	// after it refolds the journal prefix the lost log held.
	cut := len(visits) / 2
	for visits[cut].Site == visits[cut-1].Site {
		cut++
	}
	lost := path()
	jw := writeJournal(t, lost, visits[:cut], 5, NewLiveSink(lost, &Input{Allowlist: in.Allowlist}))
	if err := os.Remove(IndexSnapshotPath(lost)); err != nil {
		t.Fatal(err)
	}
	writeVisits(t, jw, visits[cut:])
	finishJournal(t, jw)
	if !bytes.Equal(idx(lost), want) {
		t.Fatal("campaign that lost its .idx mid-way ends with a different .idx")
	}
}

// countingFS counts the bytes written to .idx files (temps included)
// and the atomic rewrites that land on one.
type countingFS struct {
	durable.FS
	written, rewrites int64
}

type countingFile struct {
	durable.File
	n *int64
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	*f.n += int64(n)
	return n, err
}

func (c *countingFS) wrap(f durable.File, err error) (durable.File, error) {
	if err != nil || chaos.ClassifyArtifact(f.Name()) != chaos.PathSnapshot {
		return f, err
	}
	return countingFile{File: f, n: &c.written}, nil
}

func (c *countingFS) Create(path string) (durable.File, error) { return c.wrap(c.FS.Create(path)) }

func (c *countingFS) OpenFile(path string, flag int, perm os.FileMode) (durable.File, error) {
	return c.wrap(c.FS.OpenFile(path, flag, perm))
}

func (c *countingFS) CreateTemp(dir, pattern string) (durable.File, error) {
	return c.wrap(c.FS.CreateTemp(dir, pattern))
}

func (c *countingFS) Rename(oldpath, newpath string) error {
	if chaos.ClassifyArtifact(newpath) == chaos.PathSnapshot {
		c.rewrites++
	}
	return c.FS.Rename(oldpath, newpath)
}

// TestLiveSnapshotWritesStayLinear pins the write side of the segment
// log on the worst cadence, a checkpoint after every site: the total
// .idx bytes written stay a small multiple of the final file (the
// whole-file rewrite it replaced wrote O(checkpoints x index)), and full
// rewrites grow only logarithmically with the checkpoint count.
//
// The constants follow from the compaction rule once a delta costs at
// most twice its share of the full segment: a one-site delta re-names
// every domain key it touches, which the full segment names once, so on
// this fixture each compaction grows the full segment by about 1.7x
// (not 2x) and the total comes to about 5.0x the final file.
//
// Mid-campaign the log is a chain of deltas that restores to the exact
// prefix index.
func TestLiveSnapshotWritesStayLinear(t *testing.T) {
	in := chaosInput(t)
	visits := in.Data.Visits[:300]
	sites := 0
	for i := range visits {
		if i+1 == len(visits) || visits[i+1].Site != visits[i].Site {
			sites++
		}
	}
	fsys := &countingFS{FS: durable.OS}
	path := filepath.Join(t.TempDir(), "linear.jsonl.gz")
	sink := NewLiveSink(path, &Input{Allowlist: in.Allowlist, FS: fsys})
	jw := writeJournal(t, path, visits, 1, sink)

	data, err := os.ReadFile(IndexSnapshotPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if segs, _, err := decodeSegments(data); err != nil || len(segs) < 2 {
		t.Fatalf("mid-campaign log has %d segments (err %v), want a full segment plus deltas", len(segs), err)
	}
	live, _ := LoadIndexSnapshot(path, &Input{Allowlist: in.Allowlist})
	if live == nil {
		t.Fatal("mid-campaign segment log did not restore")
	}
	ref := &Input{Data: &dataset.Dataset{Visits: visits}, Allowlist: in.Allowlist, Attestations: in.Attestations}
	assertIndexEqual(t, "restored delta chain", live.Snapshot(in), ref.Index())

	finishJournal(t, jw)
	final, err := os.ReadFile(IndexSnapshotPath(path))
	if err != nil {
		t.Fatal(err)
	}
	checkpoints := sites + 2 // one per site, then Flush and Close
	if fsys.written > 5*int64(len(final)) {
		t.Fatalf("wrote %d .idx bytes over %d checkpoints, more than 5x the %d-byte final file",
			fsys.written, checkpoints, len(final))
	}
	limit := int64(math.Ceil(math.Log(float64(checkpoints))/math.Log(1.5))) + 2
	if fsys.rewrites > limit {
		t.Fatalf("%d full rewrites over %d checkpoints, want at most %d", fsys.rewrites, checkpoints, limit)
	}
	t.Logf("%d checkpoints: %d .idx bytes written (%.2fx the %d-byte final file), %d full rewrites",
		checkpoints, fsys.written, float64(fsys.written)/float64(len(final)), len(final), fsys.rewrites)
}

// loadLive is LoadLiveIndex finalized in place against in, the way a
// one-shot report reads a journal.
func loadLive(path string, in *Input) (*Index, *LiveStats, error) {
	live, st, err := LoadLiveIndex(path, in)
	if err != nil {
		return nil, nil, err
	}
	return live.finalize(in), st, nil
}
