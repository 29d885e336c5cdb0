package orchestrator_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/netmeasure/topicscope"
	"github.com/netmeasure/topicscope/internal/analysis"
	"github.com/netmeasure/topicscope/internal/campaign"
	"github.com/netmeasure/topicscope/internal/chaos"
	"github.com/netmeasure/topicscope/internal/durable"
	"github.com/netmeasure/topicscope/internal/obs"
	"github.com/netmeasure/topicscope/internal/orchestrator"
	"github.com/netmeasure/topicscope/internal/webworld"
)

// The distributed campaign's acceptance bar: an N-shard orchestrated
// crawl of the same (world, seed, chaos) produces byte-identical
// dataset bytes and report JSON to the single-process crawl — including
// after injected worker crashes and restarts. Every test in this file
// measures against the single-process topicscope.Campaign as ground
// truth.

const (
	parSeed      = 7
	parChaosSeed = 5
	parEvery     = 3
)

func canonical(t *testing.T, path string) []byte {
	t.Helper()
	b, err := durable.CanonicalBytes(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) == 0 {
		t.Fatalf("journal %s is empty", path)
	}
	return b
}

func reportJSON(t *testing.T, rep *topicscope.Report) []byte {
	t.Helper()
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// runSingle is the ground truth: the one-process campaign journaling to
// out.
func runSingle(t *testing.T, out string, sites int) *topicscope.Results {
	t.Helper()
	res, err := topicscope.Campaign{
		Seed: parSeed, Sites: sites, Workers: 8,
		Chaos: true, ChaosSeed: parChaosSeed,
		OutputPath: out, CheckpointEvery: parEvery,
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func orchCampaign(out string, sites, shards int) orchestrator.Campaign {
	return orchestrator.Campaign{
		Spec:       campaign.Spec{World: webworld.Config{Seed: parSeed, NumSites: sites}, Chaos: true, ChaosSeed: parChaosSeed},
		Workers:    8,
		OutputPath: out, CheckpointEvery: parEvery,
		Shards: shards,
	}
}

func TestPartitionGeometry(t *testing.T) {
	specs, err := orchestrator.Partition(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantWindows := [][2]int{{1, 3}, {4, 6}, {7, 8}, {9, 10}}
	for i, s := range specs {
		if s.Index != i || s.Count != 4 {
			t.Errorf("shard %d identifies as %d/%d", i, s.Index, s.Count)
		}
		if s.FromRank != wantWindows[i][0] || s.ToRank != wantWindows[i][1] {
			t.Errorf("shard %d covers [%d,%d], want %v", i, s.FromRank, s.ToRank, wantWindows[i])
		}
	}

	// Every rank lands in exactly one shard, for any geometry.
	for _, c := range []struct{ sites, count int }{{1, 1}, {7, 3}, {100, 7}, {3, 8}} {
		specs, err := orchestrator.Partition(c.sites, c.count)
		if err != nil {
			t.Fatal(err)
		}
		next := 1
		for _, s := range specs {
			if s.FromRank != next {
				t.Fatalf("partition(%d,%d): rank gap at shard %d", c.sites, c.count, s.Index)
			}
			next = s.ToRank + 1
		}
		if next != c.sites+1 {
			t.Fatalf("partition(%d,%d): covers ranks up to %d", c.sites, c.count, next-1)
		}
	}

	if _, err := orchestrator.Partition(0, 2); err == nil {
		t.Error("zero sites accepted")
	}
	if _, err := orchestrator.Partition(10, 0); err == nil {
		t.Error("zero shards accepted")
	}
}

func TestParseShard(t *testing.T) {
	i, n, err := orchestrator.ParseShard("2/4")
	if err != nil || i != 2 || n != 4 {
		t.Fatalf("ParseShard(2/4) = %d,%d,%v", i, n, err)
	}
	for _, bad := range []string{"", "3", "4/4", "-1/4", "a/b", "1/0"} {
		if _, _, err := orchestrator.ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q) accepted", bad)
		}
	}
}

// TestExecLauncherRejectsWorldOverrides pins the exec boundary: a
// worker's argv carries only -seed and -sites, so a campaign whose world
// has calibration overrides must not be launched as if it had none.
func TestExecLauncherRejectsWorldOverrides(t *testing.T) {
	l := &orchestrator.ExecLauncher{Bin: "/nonexistent/topics-crawl"}
	spec := orchestrator.ShardSpec{Index: 0, Count: 1, FromRank: 1, ToRank: 10}
	c := orchCampaign(filepath.Join(t.TempDir(), "crawl.jsonl"), 10, 1)
	if _, err := l.Start(context.Background(), &c, spec, 0, false); err == nil || strings.Contains(err.Error(), "cannot express") {
		t.Fatalf("Start with a plain world = %v, want only the missing binary to fail it", err)
	}
	c.World.ReachableRate = 0.5
	if _, err := l.Start(context.Background(), &c, spec, 0, false); err == nil || !strings.Contains(err.Error(), "cannot express") {
		t.Fatalf("Start with a calibration override = %v, want the exec-boundary rejection", err)
	}
}

func TestShardPathAndStatus(t *testing.T) {
	if got := orchestrator.ShardPath("crawl.jsonl", 2); got != "crawl.jsonl.shard-2" {
		t.Errorf("plain shard path %q", got)
	}
	if got := orchestrator.ShardPath("crawl.jsonl.gz", 0); got != "crawl.jsonl.shard-0.gz" {
		t.Errorf("gz shard path %q", got)
	}

	dir := t.TempDir()
	shardPath := filepath.Join(dir, "c.jsonl.shard-1")
	st := &orchestrator.Status{
		Shard: orchestrator.ShardSpec{Index: 1, Count: 4, FromRank: 26, ToRank: 50},
		PID:   123, MetricsURL: "http://127.0.0.1:999/__metrics", State: orchestrator.StateRunning,
	}
	if err := orchestrator.WriteStatus(shardPath, st); err != nil {
		t.Fatal(err)
	}
	got, err := orchestrator.ReadStatus(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *st {
		t.Errorf("status round trip: %+v vs %+v", got, st)
	}
}

// TestGoldenShardedParity is the tentpole's golden test: a 4-shard
// orchestrated campaign against the byte-identical single-process
// reference, on both plain and gzip journals, down to the report JSON.
func TestGoldenShardedParity(t *testing.T) {
	const sites = 120
	for _, ext := range []string{".jsonl", ".jsonl.gz"} {
		t.Run(strings.TrimPrefix(ext, "."), func(t *testing.T) {
			dir := t.TempDir()
			singleOut := filepath.Join(dir, "single"+ext)
			ref := runSingle(t, singleOut, sites)

			mergedOut := filepath.Join(dir, "merged"+ext)
			res, err := orchCampaign(mergedOut, sites, 4).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}

			if got, want := canonical(t, mergedOut), canonical(t, singleOut); !bytes.Equal(got, want) {
				t.Fatalf("merged dataset differs from single-process crawl (%d vs %d canonical bytes)", len(got), len(want))
			}
			if got, want := reportJSON(t, res.Report), reportJSON(t, ref.Report); !bytes.Equal(got, want) {
				t.Fatal("merged report JSON differs from single-process report")
			}
			if res.Merge.Records != int64(ref.Data.Len()) {
				t.Errorf("merged dataset holds %d visits, single-process %d", res.Merge.Records, ref.Data.Len())
			}
			if res.Restarts != 0 {
				t.Errorf("clean campaign recorded %d restarts", res.Restarts)
			}

			// The merged manifest matches the single-process one on every
			// committed fact (offsets differ only under gzip, where member
			// boundaries legitimately depend on checkpoint history).
			mm, sm := durable.LoadManifest(mergedOut), durable.LoadManifest(singleOut)
			if mm == nil || sm == nil {
				t.Fatal("missing manifest on a finished journal")
			}
			if mm.Shard != nil {
				t.Error("merged journal manifest still carries shard geometry")
			}
			if mm.Records != sm.Records || mm.Sites != sm.Sites || mm.WatermarkRank != sm.WatermarkRank {
				t.Errorf("merged manifest %+v diverges from single-process %+v", mm, sm)
			}
			if ext == ".jsonl" && mm.PayloadCRC != sm.PayloadCRC {
				t.Errorf("payload CRC %08x vs single-process %08x", mm.PayloadCRC, sm.PayloadCRC)
			}

			// Every worker reported a clean exit in its status file.
			for i := 0; i < 4; i++ {
				st, err := orchestrator.ReadStatus(orchestrator.ShardPath(mergedOut, i))
				if err != nil {
					t.Fatal(err)
				}
				if st.State != orchestrator.StateDone {
					t.Errorf("shard %d finished in state %q", i, st.State)
				}
			}
		})
	}
}

// shardRunner runs one shard of the fixed 48-site matrix campaign.
func shardRunner(out string, spec orchestrator.ShardSpec, resume bool, plan *chaos.CrashPlan) (*orchestrator.ShardResult, error) {
	sc := orchestrator.ShardCampaign{
		Spec:       campaign.Spec{World: webworld.Config{Seed: parSeed, NumSites: 48}, Chaos: true, ChaosSeed: parChaosSeed},
		Workers:    8,
		OutputPath: out, CheckpointEvery: parEvery,
		Shard: spec, Resume: resume, CrashPlan: plan,
	}
	return sc.Run(context.Background())
}

// TestCrashRestartMatrixMergeParity is the fault-handling satellite:
// kill shard 1's worker before every record append (covering every
// checkpoint boundary and every mid-checkpoint position), restart it
// from the shard checkpoint, and demand the restarted worker resumes
// O(tail) and the final merge stays byte-identical to the
// single-process reference.
func TestCrashRestartMatrixMergeParity(t *testing.T) {
	const sites = 48
	dir := t.TempDir()
	refBytes := canonical(t, func() string {
		p := filepath.Join(dir, "single.jsonl")
		runSingle(t, p, sites)
		return p
	}())

	out := filepath.Join(dir, "camp.jsonl")
	specs, err := orchestrator.Partition(sites, 4)
	if err != nil {
		t.Fatal(err)
	}
	shardPaths := make([]string, len(specs))
	for i, spec := range specs {
		shardPaths[i] = orchestrator.ShardPath(out, i)
		if i == 1 {
			continue // the crash victim, run per crashpoint below
		}
		if _, err := shardRunner(out, spec, false, nil); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}

	// One clean run of the victim shard pins the baseline and tells us
	// how many crashpoints the matrix has.
	victim := shardPaths[1]
	if _, err := shardRunner(out, specs[1], false, nil); err != nil {
		t.Fatal(err)
	}
	m := durable.LoadManifest(victim)
	if m == nil {
		t.Fatal("clean shard has no manifest")
	}
	n := m.Records
	if n < 10 {
		t.Fatalf("matrix too small: shard 1 has %d records", n)
	}
	if _, err := orchestrator.MergeJournals(out, shardPaths, obs.NewRegistry()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonical(t, out), refBytes) {
		t.Fatal("clean 4-shard merge differs from single-process crawl")
	}

	for k := int64(1); k < n; k++ {
		os.Remove(victim)
		os.Remove(durable.ManifestPath(victim))

		_, err := shardRunner(out, specs[1], false, &chaos.CrashPlan{AfterRecords: k})
		if err == nil {
			t.Fatalf("crashpoint %d: worker survived its own death", k)
		}
		if !chaos.IsCrash(err) {
			t.Fatalf("crashpoint %d: unexpected error: %v", k, err)
		}
		if st, err := orchestrator.ReadStatus(victim); err != nil || st.State != orchestrator.StateFailed {
			t.Fatalf("crashpoint %d: status %+v, %v — want %q", k, st, err, orchestrator.StateFailed)
		}

		// Restart from the shard checkpoint. When a checkpoint was
		// committed before the crash, the resume scan must read exactly
		// the tail past it — the O(tail) contract.
		size := fileSize(t, victim)
		cm := durable.LoadManifest(victim)
		res, err := shardRunner(out, specs[1], true, nil)
		if err != nil {
			t.Fatalf("crashpoint %d: restarted worker: %v", k, err)
		}
		if res.Resumed == nil {
			t.Fatalf("crashpoint %d: restart reported no resume state", k)
		}
		if cm != nil {
			if want := size - cm.Offset; res.Resumed.BytesRead != want {
				t.Fatalf("crashpoint %d: resume read %d raw bytes, want the %d-byte tail", k, res.Resumed.BytesRead, want)
			}
		}

		if _, err := orchestrator.MergeJournals(out, shardPaths, obs.NewRegistry()); err != nil {
			t.Fatalf("crashpoint %d: merge: %v", k, err)
		}
		if !bytes.Equal(canonical(t, out), refBytes) {
			t.Fatalf("crashpoint %d: crash+restart merge differs from single-process crawl", k)
		}
	}
}

// TestCoordinatorRestartsCrashedWorkers drives the whole supervision
// loop: two workers crash (one at a record boundary, one with a torn
// byte-level write), the coordinator restarts both from their shard
// checkpoints, and the campaign still lands on the single-process
// bytes and report.
func TestCoordinatorRestartsCrashedWorkers(t *testing.T) {
	const sites = 48
	dir := t.TempDir()
	singleOut := filepath.Join(dir, "single.jsonl")
	ref := runSingle(t, singleOut, sites)

	out := filepath.Join(dir, "merged.jsonl")
	c := orchCampaign(out, sites, 4)
	c.MaxRestarts = 1
	c.Launcher = &orchestrator.InProcLauncher{
		CrashPlan: func(shard, attempt int) *chaos.CrashPlan {
			if attempt > 0 {
				return nil
			}
			switch shard {
			case 1:
				return &chaos.CrashPlan{AfterBytes: 2000}
			case 2:
				return &chaos.CrashPlan{AfterRecords: 5}
			}
			return nil
		},
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 2 {
		t.Errorf("campaign recorded %d restarts, want 2", res.Restarts)
	}
	if got := res.Metrics.Snapshot().Counter("orchestrator_worker_restarts_total"); got != 2 {
		t.Errorf("restart counter %d, want 2", got)
	}
	if !bytes.Equal(canonical(t, out), canonical(t, singleOut)) {
		t.Fatal("crash+restart campaign dataset differs from single-process crawl")
	}
	if !bytes.Equal(reportJSON(t, res.Report), reportJSON(t, ref.Report)) {
		t.Fatal("crash+restart campaign report differs from single-process report")
	}
}

// idleLauncher starts no worker: a resume over shards that are already
// complete then leaves every shard artifact exactly as the test set it.
type idleLauncher struct{}

type doneHandle struct{}

func (doneHandle) Wait() error { return nil }

func (idleLauncher) Start(context.Context, *orchestrator.Campaign, orchestrator.ShardSpec, int, bool) (orchestrator.Handle, error) {
	return doneHandle{}, nil
}

// TestCoordinatorResumeWithoutShardIndex deletes one shard's .idx after
// a finished campaign and resumes it. With in-process workers the resumed
// shard refolds its journal and writes the .idx again; with no worker at
// all the coordinator folds that shard's journal itself. Either way the
// report must be the first run's, byte for byte.
func TestCoordinatorResumeWithoutShardIndex(t *testing.T) {
	const sites = 48
	out := filepath.Join(t.TempDir(), "merged.jsonl")
	first, err := orchCampaign(out, sites, 4).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := reportJSON(t, first.Report)
	for _, tc := range []struct {
		name     string
		launcher orchestrator.Launcher
		rebuilt  int64
	}{
		{"workers", nil, 0},
		{"no-workers", idleLauncher{}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.Remove(analysis.IndexSnapshotPath(orchestrator.ShardPath(out, 2))); err != nil {
				t.Fatal(err)
			}
			c := orchCampaign(out, sites, 4)
			c.Resume, c.Launcher = true, tc.launcher
			res, err := c.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(reportJSON(t, res.Report), want) {
				t.Error("resumed campaign's report differs from the first run's")
			}
			snap := res.Metrics.Snapshot()
			if got := snap.Counter("orchestrator_shard_index_rebuilt_total"); got != tc.rebuilt {
				t.Errorf("%d shard journals folded, want %d", got, tc.rebuilt)
			}
			if got := snap.Counter("orchestrator_shard_index_restored_total"); got != 4-tc.rebuilt {
				t.Errorf("%d shard snapshots restored, want %d", got, 4-tc.rebuilt)
			}
		})
	}
}

// TestCoordinatorRestartBudgetExhausted pins the supervision failure
// path: a shard that crashes on every attempt exhausts its budget, the
// campaign fails with the crash as root cause, and the siblings are
// drained rather than left running.
func TestCoordinatorRestartBudgetExhausted(t *testing.T) {
	dir := t.TempDir()
	c := orchCampaign(filepath.Join(dir, "merged.jsonl"), 48, 4)
	c.MaxRestarts = 1
	c.Launcher = &orchestrator.InProcLauncher{
		CrashPlan: func(shard, attempt int) *chaos.CrashPlan {
			if shard == 0 {
				return &chaos.CrashPlan{AfterRecords: 3}
			}
			return nil
		},
	}
	_, err := c.Run(context.Background())
	if err == nil {
		t.Fatal("campaign succeeded despite a permanently crashing shard")
	}
	if !strings.Contains(err.Error(), "restart budget") {
		t.Errorf("error does not name the exhausted budget: %v", err)
	}
	if !chaos.IsCrash(err) {
		t.Errorf("root cause lost from the error chain: %v", err)
	}
}

// TestMergeJournalsRejectsBadShards covers the merge validator: missing
// shards, wrong geometry, incomplete shards, and that a failed merge
// leaves no partial output behind.
func TestMergeJournalsRejectsBadShards(t *testing.T) {
	const sites = 24
	dir := t.TempDir()
	out := filepath.Join(dir, "m.jsonl")
	specs, err := orchestrator.Partition(sites, 2)
	if err != nil {
		t.Fatal(err)
	}
	paths := []string{orchestrator.ShardPath(out, 0), orchestrator.ShardPath(out, 1)}
	run := func(i int, resume bool, plan *chaos.CrashPlan) error {
		sc := orchestrator.ShardCampaign{
			Spec:       campaign.Spec{World: webworld.Config{Seed: parSeed, NumSites: sites}},
			Workers:    4,
			OutputPath: out, CheckpointEvery: parEvery,
			Shard: specs[i], Resume: resume, CrashPlan: plan,
		}
		_, err := sc.Run(context.Background())
		return err
	}
	if err := run(0, false, nil); err != nil {
		t.Fatal(err)
	}

	assertRejected := func(name string, paths []string) {
		t.Helper()
		if _, err := orchestrator.MergeJournals(out, paths, obs.NewRegistry()); err == nil {
			t.Fatalf("%s: merge accepted", name)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Fatalf("%s: failed merge left partial output behind", name)
		}
	}

	assertRejected("missing sibling", paths)
	assertRejected("zero shards", nil)
	assertRejected("wrong order", []string{paths[0], paths[0]})

	// An incomplete shard (crashed, never restarted) must be refused:
	// its watermark sits below its window's ToRank.
	if err := run(1, false, &chaos.CrashPlan{AfterRecords: 8}); err == nil || !chaos.IsCrash(err) {
		t.Fatalf("crash plan did not fire: %v", err)
	}
	assertRejected("incomplete shard", paths)

	// Completing the shard heals the merge.
	if err := run(1, true, nil); err != nil {
		t.Fatal(err)
	}
	st, err := orchestrator.MergeJournals(out, paths, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 2 || st.WatermarkRank != sites {
		t.Errorf("merge stats %+v", st)
	}
	if m := durable.LoadManifest(out); m == nil || m.Records != st.Records {
		t.Errorf("merged manifest %+v does not match stats %+v", m, st)
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
