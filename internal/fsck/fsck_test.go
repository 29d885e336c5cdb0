package fsck_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/netmeasure/topicscope"
	"github.com/netmeasure/topicscope/internal/analysis"
	"github.com/netmeasure/topicscope/internal/campaign"
	"github.com/netmeasure/topicscope/internal/chaos"
	"github.com/netmeasure/topicscope/internal/crawler"
	"github.com/netmeasure/topicscope/internal/dataset"
	"github.com/netmeasure/topicscope/internal/durable"
	"github.com/netmeasure/topicscope/internal/fsck"
	"github.com/netmeasure/topicscope/internal/obs"
	"github.com/netmeasure/topicscope/internal/webworld"
)

// The campaign every fsck test verifies and repairs. Chaos is on: the
// repair-parity invariant must hold under the paper-calibrated fault
// weather, not just on a sunny day.
const (
	fkSeed  = 5
	fkSites = 60
	fkEvery = 5
)

func testCampaign() *fsck.Campaign {
	return &fsck.Campaign{
		Spec:            campaign.Spec{World: webworld.Config{Seed: fkSeed, NumSites: fkSites}, Chaos: true, ChaosSeed: fkSeed},
		Workers:         8,
		CheckpointEvery: fkEvery,
		Metrics:         obs.NewRegistry(),
	}
}

// runProduction builds the campaign into dir the way topics-report
// -data -json does: topicscope.Campaign journals the crawl (journal,
// manifest, frame index, live snapshot) and its report is written with
// Report.WriteJSON. retries is topicscope.Campaign.Retries.
func runProduction(dir string, retries int) error {
	res, err := topicscope.Campaign{
		Seed: fkSeed, Sites: fkSites, Workers: 8,
		Chaos: true, ChaosSeed: fkSeed, Retries: retries,
		OutputPath: filepath.Join(dir, "crawl.jsonl.gz"), CheckpointEvery: fkEvery,
	}.Run(context.Background())
	if err != nil {
		return err
	}
	return topicscope.WriteFileAtomic(reportPath(dir), res.Report.WriteJSON)
}

// buildCampaign runs the campaign's crawl into dir with an optional
// fault FS (and retry policy) on every artifact write — journal,
// manifest, frame index, live snapshot — and writes the report JSON
// fsck recomputes from the journal.
func buildCampaign(t *testing.T, dir string, fsys durable.FS, retry durable.RetryPolicy) (string, error) {
	t.Helper()
	camp := testCampaign()
	path := filepath.Join(dir, "crawl.jsonl.gz")
	env := camp.NewEnv(1, campaign.AllRanks)
	liveIn := &analysis.Input{Allowlist: env.Allow, FS: fsys}
	jw, err := dataset.CreateJournal(path, dataset.JournalOptions{
		CheckpointEvery: fkEvery,
		Observer:        analysis.NewLiveSink(path, liveIn),
		Durable:         durable.Options{FS: fsys, Retry: retry},
	})
	if err != nil {
		return path, err
	}
	cfg := env.Config()
	cfg.Workers = camp.Workers
	cfg.Writer = jw
	if _, err := crawler.New(cfg).Run(context.Background(), env.World.List()); err != nil {
		jw.Abort()
		return path, err
	}
	if err := jw.Close(); err != nil {
		return path, err
	}
	want, err := camp.ReportJSON(context.Background(), []string{path})
	if err != nil {
		return path, err
	}
	err = durable.WriteFileAtomicFS(fsys, reportPath(dir), func(w io.Writer) error {
		_, werr := w.Write(want)
		return werr
	})
	return path, err
}

func reportPath(dir string) string { return filepath.Join(dir, "report.json") }

func campaignPaths(dir string) fsck.CampaignPaths {
	return fsck.CampaignPaths{
		Journals: []string{filepath.Join(dir, "crawl.jsonl.gz")},
		Windows:  []fsck.Window{{From: 1, To: fkSites}},
		Report:   reportPath(dir),
	}
}

// The golden (undamaged) campaign, built once through the production
// path and copied per test.
var (
	goldenOnce sync.Once
	goldenDir  string
	goldenErr  error
)

func golden(t *testing.T) string {
	t.Helper()
	goldenOnce.Do(func() {
		goldenDir, goldenErr = os.MkdirTemp("", "fsck-golden-*")
		if goldenErr != nil {
			return
		}
		goldenErr = runProduction(goldenDir, 0)
	})
	if goldenErr != nil {
		t.Fatalf("golden campaign: %v", goldenErr)
	}
	return goldenDir
}

// cloneCampaign copies the golden campaign into a fresh directory.
func cloneCampaign(t *testing.T) string {
	t.Helper()
	src := golden(t)
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func canonical(t *testing.T, path string) []byte {
	t.Helper()
	data, err := durable.CanonicalBytes(path)
	if err != nil {
		t.Fatalf("CanonicalBytes(%s): %v", path, err)
	}
	return data
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// assertParity is the pinned invariant: after repair, the dataset's
// canonical bytes and the report JSON match the undamaged campaign, and
// a fresh verify is clean.
func assertParity(t *testing.T, dir string) {
	t.Helper()
	goldenPath := filepath.Join(golden(t), "crawl.jsonl.gz")
	path := filepath.Join(dir, "crawl.jsonl.gz")
	if !bytes.Equal(canonical(t, path), canonical(t, goldenPath)) {
		t.Fatal("repaired dataset differs canonically from the undamaged campaign")
	}
	if !bytes.Equal(readFile(t, reportPath(dir)), readFile(t, reportPath(golden(t)))) {
		t.Fatal("repaired report differs from the undamaged campaign")
	}
	rep, _, err := testCampaign().Verify(context.Background(), campaignPaths(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		buf := &bytes.Buffer{}
		rep.Encode(buf)
		t.Fatalf("repair left findings behind:\n%s", buf.String())
	}
}

func repairAndAssert(t *testing.T, dir string) *fsck.Report {
	t.Helper()
	rep, _, err := testCampaign().RepairCampaign(context.Background(), campaignPaths(dir))
	if err != nil {
		t.Fatalf("RepairCampaign: %v", err)
	}
	assertParity(t, dir)
	return rep
}

func TestVerifyCleanCampaignWritesNothing(t *testing.T) {
	dir := cloneCampaign(t)
	before := map[string][]byte{}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		before[e.Name()] = readFile(t, filepath.Join(dir, e.Name()))
	}
	rep, _, err := testCampaign().Verify(context.Background(), campaignPaths(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		buf := &bytes.Buffer{}
		rep.Encode(buf)
		t.Fatalf("pristine campaign flagged dirty:\n%s", buf.String())
	}
	j := rep.Journals[0]
	if j.Records == 0 || j.Sites != fkSites {
		t.Fatalf("verify salvaged %d records / %d sites", j.Records, j.Sites)
	}
	after, _ := os.ReadDir(dir)
	if len(after) != len(entries) {
		t.Fatalf("verify changed the directory: %d -> %d entries", len(entries), len(after))
	}
	for _, e := range after {
		if !bytes.Equal(before[e.Name()], readFile(t, filepath.Join(dir, e.Name()))) {
			t.Errorf("read-only verify rewrote %s", e.Name())
		}
	}
}

func TestRepairCleanCampaignIsNoop(t *testing.T) {
	dir := cloneCampaign(t)
	journalBefore := readFile(t, filepath.Join(dir, "crawl.jsonl.gz"))
	reportBefore := readFile(t, reportPath(dir))
	rep, results, err := testCampaign().RepairCampaign(context.Background(), campaignPaths(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Fatal("clean campaign flagged")
	}
	res := results[0]
	if res.Recrawled != 0 || res.Spliced != 0 || len(res.Rewrote) != 0 {
		t.Fatalf("repair touched a clean campaign: %+v", res)
	}
	if !bytes.Equal(journalBefore, readFile(t, filepath.Join(dir, "crawl.jsonl.gz"))) {
		t.Fatal("repair rewrote a clean journal")
	}
	if !bytes.Equal(reportBefore, readFile(t, reportPath(dir))) {
		t.Fatal("repair rewrote the report of a clean campaign")
	}
}

// TestRepairCancelledLeavesReport cancels a repair before the report
// check's attestation sweep: the sweep's fetch errors must surface as
// the context's error, never as a report that replaces the campaign's.
func TestRepairCancelledLeavesReport(t *testing.T) {
	dir := cloneCampaign(t)
	reportBefore := readFile(t, reportPath(dir))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := testCampaign().RepairCampaign(ctx, campaignPaths(dir)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled repair = %v, want context.Canceled", err)
	}
	if !bytes.Equal(reportBefore, readFile(t, reportPath(dir))) {
		t.Fatal("a cancelled repair rewrote the report")
	}
}

// TestRepairParityWithoutRetries repairs a campaign crawled with one
// attempt per navigation and fetch (-retries 0) under chaos. The
// recrawl must use the campaign's attempt budget: with the default
// budget the regenerated records differ.
func TestRepairParityWithoutRetries(t *testing.T) {
	ref := t.TempDir()
	if err := runProduction(ref, -1); err != nil {
		t.Fatal(err)
	}
	refJournal := filepath.Join(ref, "crawl.jsonl.gz")
	if bytes.Equal(canonical(t, refJournal), canonical(t, filepath.Join(golden(t), "crawl.jsonl.gz"))) {
		t.Fatal("retries change nothing under this chaos profile — the test is vacuous")
	}
	camp := testCampaign()
	camp.Attempts = campaign.Attempts(0)
	for _, damage := range []string{"crawl.jsonl.gz", "report.json"} {
		dir := t.TempDir()
		if err := runProduction(dir, -1); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(dir, damage)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := camp.RepairCampaign(context.Background(), campaignPaths(dir)); err != nil {
			t.Fatalf("repairing missing %s: %v", damage, err)
		}
		if !bytes.Equal(canonical(t, filepath.Join(dir, "crawl.jsonl.gz")), canonical(t, refJournal)) {
			t.Errorf("missing %s: repaired dataset differs from the campaign's", damage)
		}
		if !bytes.Equal(readFile(t, reportPath(dir)), readFile(t, reportPath(ref))) {
			t.Errorf("missing %s: repaired report differs from the campaign's", damage)
		}
	}
}

// TestRepairParityFaultMatrix is the acceptance matrix: every fault
// class, injected at every artifact class it applies to, repaired back
// to byte parity with the undamaged campaign.
func TestRepairParityFaultMatrix(t *testing.T) {
	journal := "crawl.jsonl.gz"
	cases := []struct {
		name   string
		damage func(t *testing.T, dir string)
	}{
		{"bitflip-journal", func(t *testing.T, dir string) {
			if err := chaos.FlipBit(filepath.Join(dir, journal), 1); err != nil {
				t.Fatal(err)
			}
		}},
		{"bitflip-journal-other-offset", func(t *testing.T, dir string) {
			if err := chaos.FlipBit(filepath.Join(dir, journal), 99); err != nil {
				t.Fatal(err)
			}
		}},
		{"bitflip-manifest", func(t *testing.T, dir string) {
			if err := chaos.FlipBit(filepath.Join(dir, journal+".ckpt"), 2); err != nil {
				t.Fatal(err)
			}
		}},
		{"bitflip-frame-index", func(t *testing.T, dir string) {
			if err := chaos.FlipBit(filepath.Join(dir, journal+".fidx"), 3); err != nil {
				t.Fatal(err)
			}
		}},
		{"bitflip-snapshot", func(t *testing.T, dir string) {
			if err := chaos.FlipBit(filepath.Join(dir, journal+".idx"), 4); err != nil {
				t.Fatal(err)
			}
		}},
		{"bitflip-report", func(t *testing.T, dir string) {
			if err := chaos.FlipBit(reportPath(dir), 5); err != nil {
				t.Fatal(err)
			}
		}},
		{"torn-tail", func(t *testing.T, dir string) {
			path := filepath.Join(dir, journal)
			data := readFile(t, path)
			if err := os.Truncate(path, int64(len(data))-int64(len(data)/10)); err != nil {
				t.Fatal(err)
			}
		}},
		{"journal-missing", func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, journal)); err != nil {
				t.Fatal(err)
			}
		}},
		{"manifest-missing", func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, journal+".ckpt")); err != nil {
				t.Fatal(err)
			}
		}},
		{"report-missing", func(t *testing.T, dir string) {
			if err := os.Remove(reportPath(dir)); err != nil {
				t.Fatal(err)
			}
		}},
		{"torn-rename-stray-temp", func(t *testing.T, dir string) {
			// The residue of a rename that never happened: the staged temp
			// survives beside a stale target.
			stray := filepath.Join(dir, "."+journal+".ckpt.tmp-4242")
			if err := os.WriteFile(stray, []byte("half a manifest"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"compound-journal-and-sidecars", func(t *testing.T, dir string) {
			if err := chaos.FlipBit(filepath.Join(dir, journal), 7); err != nil {
				t.Fatal(err)
			}
			if err := os.Remove(filepath.Join(dir, journal+".fidx")); err != nil {
				t.Fatal(err)
			}
			if err := chaos.FlipBit(filepath.Join(dir, journal+".idx"), 8); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := cloneCampaign(t)
			tc.damage(t, dir)
			rep := repairAndAssert(t, dir)
			if rep.Clean && tc.name != "bitflip-manifest" && tc.name != "bitflip-frame-index" {
				// Most damage must be visible pre-repair. (A sidecar bit
				// flip may survive strict decoding and instead surface as
				// staleness — also a finding — but a flipped length field
				// can also make it simply lie, caught by the boundary
				// resync; either way parity held above.)
				if len(rep.Findings) == 0 && len(rep.Journals[0].Findings) == 0 {
					t.Error("damage invisible to verify")
				}
			}
		})
	}
}

// TestSnapshotBodyBitFlipIsCorrupt pins the .idx integrity check: one
// flipped bit in a domain name of the snapshot's string table, chosen so
// the payload still verifies with every header field intact, is visible
// only to the segment CRC — verify must report it, and repair must
// restore parity.
func TestSnapshotBodyBitFlipIsCorrupt(t *testing.T) {
	dir := cloneCampaign(t)
	journal := filepath.Join(dir, "crawl.jsonl.gz")
	idx := analysis.IndexSnapshotPath(journal)
	data := readFile(t, idx)
	records, crc, err := analysis.VerifyIndexSnapshot(data, journal)
	if err != nil {
		t.Fatal(err)
	}
	// The finished campaign's .idx is one frame: header line, payload,
	// newline.
	payload := data[bytes.IndexByte(data, '\n')+1 : len(data)-1]
	from := bytes.Index(payload, []byte(".com"))
	if from < 0 {
		t.Fatal("no domain name in the snapshot")
	}
	for i := from; ; i++ {
		if i == len(payload) {
			t.Fatal("no bit flip in the string table verifies")
		}
		flipped := append([]byte(nil), payload...)
		flipped[i] ^= 0x01
		r, c, err := analysis.VerifyIndexSnapshot(durable.AppendFrame(nil, flipped), journal)
		if err == nil && r == records && c == crc {
			payload[i] ^= 0x01
			break
		}
	}
	if err := os.WriteFile(idx, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, _, err := testCampaign().Verify(context.Background(), campaignPaths(dir))
	if err != nil {
		t.Fatal(err)
	}
	corrupt := false
	for _, f := range rep.Journals[0].Findings {
		corrupt = corrupt || f.Code == fsck.CodeSnapshotCorrupt
	}
	if !corrupt {
		t.Fatalf("body bit flip not reported as %s: %+v", fsck.CodeSnapshotCorrupt, rep.Journals[0].Findings)
	}
	repairAndAssert(t, dir)
}

// TestRepairSeedSweep flips one journal bit under many seeds — the
// offset lands in headers, payloads, frame CRCs and gzip members alike —
// and demands parity after every repair.
func TestRepairSeedSweep(t *testing.T) {
	for seed := uint64(10); seed < 22; seed++ {
		dir := cloneCampaign(t)
		if err := chaos.FlipBit(filepath.Join(dir, "crawl.jsonl.gz"), seed); err != nil {
			t.Fatal(err)
		}
		repairAndAssert(t, dir)
	}
}

// TestRepairAfterENOSPC fills the simulated disk mid-campaign, asserts
// the fail-fast drain left a durable prefix, then completes the
// campaign with fsck -repair alone.
func TestRepairAfterENOSPC(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	fsys := chaos.NewFaultFS(nil, chaos.FSProfile{Seed: 3, ENOSPCAfter: 64 << 10, Metrics: reg})
	path, err := buildCampaign(t, dir, fsys, durable.RetryPolicy{Attempts: 4, Metrics: reg})
	if err == nil {
		t.Fatal("campaign survived a 64KiB disk")
	}
	if !durable.IsDiskFull(err) {
		t.Fatalf("want ENOSPC classification, got: %v", err)
	}
	if !fsys.DiskFull() {
		t.Fatal("fault FS did not latch")
	}
	// The journal's committed prefix must still verify as a clean prefix
	// (possibly with an uncommitted tail) — ENOSPC is a clean drain, not
	// corruption.
	chk, verr := fsck.VerifyJournal(path, fsck.VerifyOptions{FromRank: 1, ToRank: fkSites})
	if verr != nil {
		t.Fatal(verr)
	}
	if chk.Report.Records == 0 {
		t.Fatal("nothing durable survived the disk-full drain")
	}
	// Repair on the real filesystem (space freed) completes the campaign.
	repairAndAssert(t, dir)
}

// TestCampaignSurvivesTransientStorageFaults runs the whole campaign
// with EIO blips, short writes and torn renames on every artifact class
// and demands: completion under retry, a clean fsck, and byte parity
// with the fault-free campaign.
func TestCampaignSurvivesTransientStorageFaults(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	fsys := chaos.NewFaultFS(nil, chaos.FSProfile{
		Seed: 17,
		Rates: map[chaos.PathClass]chaos.FSFaultRates{
			chaos.PathJournal:    {Sync: 0.1, Write: 0.02, ShortWrite: 0.02},
			chaos.PathManifest:   {Create: 0.1, Sync: 0.1, Rename: 0.1},
			chaos.PathFrameIndex: {Create: 0.2, Sync: 0.2, Rename: 0.2},
			chaos.PathSnapshot:   {Create: 0.2, Sync: 0.2, Rename: 0.2},
		},
		Metrics: reg,
	})
	if _, err := buildCampaign(t, dir, fsys, durable.RetryPolicy{Attempts: 6, Metrics: reg}); err != nil {
		t.Fatalf("campaign under transient storage faults: %v", err)
	}
	snap := reg.Snapshot()
	injected := false
	for _, c := range snap.Counters {
		if strings.HasPrefix(c.Name, "storage_fault_injected_total") && c.Value > 0 {
			injected = true
		}
	}
	if !injected {
		t.Fatal("fault profile injected nothing — the test is vacuous")
	}
	assertParity(t, dir)
}

func TestQuarantineTruncateMakesResumable(t *testing.T) {
	dir := cloneCampaign(t)
	path := filepath.Join(dir, "crawl.jsonl.gz")
	if err := chaos.FlipBit(path, 1); err != nil {
		t.Fatal(err)
	}
	chk, err := fsck.VerifyJournal(path, fsck.VerifyOptions{FromRank: 1, ToRank: fkSites, KeepPayloads: true})
	if err != nil {
		t.Fatal(err)
	}
	if chk.Report.Clean {
		t.Fatal("bit flip invisible")
	}
	if err := fsck.QuarantineTruncate(chk); err != nil {
		t.Fatal(err)
	}
	// The rewound journal must verify as a clean but incomplete prefix.
	chk2, err := fsck.VerifyJournal(path, fsck.VerifyOptions{FromRank: 1, ToRank: fkSites})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range chk2.Report.Findings {
		switch f.Code {
		// Incomplete (the rewind) is expected; a flip landing in the very
		// first member leaves no clean prefix at all, so the full-reset
		// path legitimately reports the journal missing.
		case fsck.CodeIncomplete, fsck.CodeJournalMissing:
		default:
			t.Errorf("rewound journal still defective: %+v", f)
		}
	}
	// And a plain repair (which recrawls the missing suffix) restores
	// parity — the same path a coordinator-driven resume takes.
	repairAndAssert(t, dir)
}

func TestVerifyReportRoundTrip(t *testing.T) {
	dir := cloneCampaign(t)
	if err := chaos.FlipBit(filepath.Join(dir, "crawl.jsonl.gz"), 13); err != nil {
		t.Fatal(err)
	}
	rep, _, err := testCampaign().Verify(context.Background(), campaignPaths(dir))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := fsck.DecodeReport(buf.Bytes())
	if err != nil {
		t.Fatalf("decoding our own verify report: %v", err)
	}
	if back.Clean != rep.Clean || len(back.Journals) != len(rep.Journals) {
		t.Fatal("report round trip lost state")
	}
	var again bytes.Buffer
	if err := back.Encode(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("verify report is not byte-deterministic across a round trip")
	}
}

func TestDecodeReportRejectsInvalid(t *testing.T) {
	cases := map[string]string{
		"unknown-field":     `{"version":1,"journals":[],"clean":true,"extra":1}`,
		"bad-version":       `{"version":9,"journals":[],"clean":true}`,
		"trailing":          `{"version":1,"journals":[],"clean":true}{}`,
		"unnamed-journal":   `{"version":1,"journals":[{"journal":"","from_rank":1,"to_rank":2,"records":0,"sites":0,"clean":true}],"clean":true}`,
		"bad-window":        `{"version":1,"journals":[{"journal":"j","from_rank":5,"to_rank":2,"records":0,"sites":0,"clean":true}],"clean":true}`,
		"overlapping":       `{"version":1,"journals":[{"journal":"j","from_rank":1,"to_rank":10,"records":0,"sites":0,"repair":[{"from":2,"to":5},{"from":4,"to":6}],"clean":false}],"clean":false}`,
		"clean-with-repair": `{"version":1,"journals":[{"journal":"j","from_rank":1,"to_rank":10,"records":0,"sites":0,"repair":[{"from":2,"to":5}],"clean":true}],"clean":true}`,
		"clean-with-dirty":  `{"version":1,"journals":[{"journal":"j","from_rank":1,"to_rank":10,"records":0,"sites":0,"clean":false}],"clean":true}`,
	}
	for name, raw := range cases {
		if _, err := fsck.DecodeReport([]byte(raw)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := fsck.DecodeReport([]byte(`{"version":1,"journals":[],"clean":true}`)); err != nil {
		t.Errorf("minimal valid report rejected: %v", err)
	}
}

func TestStrayTemps(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{".a.ckpt.tmp-1", ".b.idx.tmp-9", "normal.jsonl", ".hidden"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	strays, err := fsck.StrayTemps(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{".a.ckpt.tmp-1", ".b.idx.tmp-9"}
	if len(strays) != len(want) || strays[0] != want[0] || strays[1] != want[1] {
		t.Fatalf("strays = %v, want %v", strays, want)
	}
}
