package crawler

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/netmeasure/topicscope/internal/analysis"
	"github.com/netmeasure/topicscope/internal/chaos"
	"github.com/netmeasure/topicscope/internal/dataset"
	"github.com/netmeasure/topicscope/internal/durable"
	"github.com/netmeasure/topicscope/internal/obs"
	"github.com/netmeasure/topicscope/internal/tranco"
)

// The kill-and-resume harness: crawl through a crash-safe journal,
// "kill" the process at a deterministic crashpoint (chaos.CrashPlan on
// the durable write path), resume from the on-disk state, and assert
// that the finished dataset — and therefore the analysis report — is
// byte-identical to an uninterrupted run. This is the repo's
// determinism invariant extended across process death.

// crawlJournal runs a (possibly chaos-faulted) crawl writing through
// the given journal writer, skipping the given completed sites.
func crawlJournal(ctx context.Context, jw VisitWriter, list *tranco.List, skip map[string]bool) error {
	cfg := chaosConfig(5, 8)
	cfg.Writer = jw
	cfg.SkipSites = skip
	_, err := New(cfg).Run(ctx, list)
	return err
}

// journalPayloads reads every record payload of a journal, start to
// end, and returns them concatenated — the byte-level identity of the
// dataset, independent of gzip member boundaries (which legitimately
// differ between checkpoint histories).
func journalPayloads(t *testing.T, path string) []byte {
	t.Helper()
	rc, _, err := durable.OpenTail(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	var buf bytes.Buffer
	st, err := durable.ScanRecords(rc, func(p []byte) error {
		buf.Write(p)
		buf.WriteByte('\n')
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Truncated {
		t.Fatalf("finished journal has a torn tail: %+v", st)
	}
	return buf.Bytes()
}

// reportJSON runs the full analysis over a journal and marshals the
// report — the artifact the acceptance criterion compares.
func reportJSON(t *testing.T, path string) []byte {
	t.Helper()
	data, err := dataset.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep := analysis.Run(&analysis.Input{Data: data, Allowlist: cwAllow})
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// goldenJournal runs the uninterrupted campaign once and returns the
// journal path.
func goldenJournal(t *testing.T, dir string, list *tranco.List, every int) string {
	t.Helper()
	path := filepath.Join(dir, "golden.jsonl.gz")
	jw, err := dataset.CreateJournal(path, dataset.JournalOptions{CheckpointEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	if err := crawlJournal(context.Background(), jw, list, nil); err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// resumeAndFinish resumes a crashed journal, recrawls what is missing,
// and returns the resume state.
func resumeAndFinish(t *testing.T, path string, list *tranco.List, every int, reg *obs.Registry) *dataset.ResumeState {
	t.Helper()
	rankSite := make(map[int]string, len(list.Entries))
	for _, e := range list.Entries {
		rankSite[e.Rank] = e.Domain
	}
	skip := make(map[string]bool)
	jw, st, err := dataset.ResumeJournal(path, dataset.JournalOptions{
		CheckpointEvery: every,
		Metrics:         reg,
		Skip:            func(rank int) bool { return skip[rankSite[rank]] },
	})
	if err != nil {
		t.Fatalf("ResumeJournal: %v", err)
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
	return st
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestCrashResumeMatrixEveryRecordBoundary kills the campaign before
// every single record append, resumes, and demands the byte-identical
// dataset and report.
func TestCrashResumeMatrixEveryRecordBoundary(t *testing.T) {
	const every = 3
	list := cwWorld.List().Top(30)
	dir := t.TempDir()
	golden := goldenJournal(t, dir, list, every)
	goldenBytes := journalPayloads(t, golden)
	goldenReport := reportJSON(t, golden)
	n := int64(bytes.Count(goldenBytes, []byte("\n")))
	if n < 30 {
		t.Fatalf("matrix too small: %d records", n)
	}

	for k := int64(1); k < n; k++ {
		path := filepath.Join(dir, fmt.Sprintf("crash-%d.jsonl.gz", k))
		plan := chaos.CrashPlan{AfterRecords: k}
		jw, err := dataset.CreateJournal(path, dataset.JournalOptions{
			CheckpointEvery: every,
			Durable:         durable.Options{BeforeAppend: plan.BeforeAppend()},
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

		resumeAndFinish(t, path, list, every, nil)
		if got := journalPayloads(t, path); !bytes.Equal(got, goldenBytes) {
			t.Fatalf("crashpoint %d: resumed dataset differs from uninterrupted run", k)
		}
		if got := reportJSON(t, path); !bytes.Equal(got, goldenReport) {
			t.Fatalf("crashpoint %d: resumed report differs from uninterrupted run", k)
		}
		os.Remove(path)
		os.Remove(durable.ManifestPath(path))
	}
}

// TestCrashResumeReadsOnlyTail crashes a 200-site campaign with a torn
// byte-level write late in the file and asserts the O(tail) resume
// contract: the salvaging scan reads exactly the bytes past the last
// checkpoint, not the whole journal, and the finished dataset still
// matches the uninterrupted run byte for byte.
func TestCrashResumeReadsOnlyTail(t *testing.T) {
	const every = 10
	list := cwWorld.List().Top(200)
	dir := t.TempDir()
	golden := goldenJournal(t, dir, list, every)
	goldenBytes := journalPayloads(t, golden)
	goldenSize := fileSize(t, golden)

	path := filepath.Join(dir, "crash.jsonl.gz")
	plan := chaos.CrashPlan{AfterBytes: goldenSize * 3 / 4}
	jw, err := dataset.CreateJournal(path, dataset.JournalOptions{
		CheckpointEvery: every,
		Durable:         durable.Options{Wrap: plan.Wrap()},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = crawlJournal(context.Background(), jw, list, nil)
	if err == nil || !chaos.IsCrash(err) {
		t.Fatalf("expected injected byte-level crash, got %v", err)
	}
	jw.Abort()

	size := fileSize(t, path)
	m := durable.LoadManifest(path)
	if m == nil {
		t.Fatal("crashed journal has no checkpoint manifest")
	}
	if m.Offset == 0 || m.Offset > size {
		t.Fatalf("manifest offset %d outside file of %d bytes", m.Offset, size)
	}

	reg := obs.NewRegistry()
	st := resumeAndFinish(t, path, list, every, reg)

	// The O(tail) bytes-read assertion: resume read the tail, the whole
	// tail, and nothing but the tail.
	if want := size - m.Offset; st.BytesRead != want {
		t.Fatalf("resume read %d raw bytes, want exactly the %d-byte tail", st.BytesRead, want)
	}
	if st.BytesRead >= size/3 {
		t.Fatalf("resume read %d of %d bytes — not O(checkpoint tail)", st.BytesRead, size)
	}

	if got := journalPayloads(t, path); !bytes.Equal(got, goldenBytes) {
		t.Fatal("resumed dataset differs from uninterrupted run")
	}
	snap := reg.Snapshot()
	if snap.Counter("dataset_checkpoints_written_total") == 0 {
		t.Error("no checkpoint counter recorded on resume")
	}
	if st.Truncated && snap.Counter("dataset_torn_tails_total") == 0 {
		t.Error("torn tail not surfaced in metrics")
	}
}

// cancellingWriter cancels the campaign context after a fixed number of
// visit records — a deterministic stand-in for SIGTERM arriving
// mid-campaign.
type cancellingWriter struct {
	*dataset.JournalWriter
	cancel context.CancelFunc
	after  int
	n      int
}

func (c *cancellingWriter) Write(v *dataset.Visit) error {
	c.n++
	if c.n == c.after {
		c.cancel()
	}
	return c.JournalWriter.Write(v)
}

// TestGracefulDrainCheckpointsAndResumes interrupts a campaign
// mid-flight, asserts the drained journal is a clean rank-contiguous
// prefix of the uninterrupted dataset with a final checkpoint, and that
// resuming completes it byte-identically.
func TestGracefulDrainCheckpointsAndResumes(t *testing.T) {
	const every = 5
	list := cwWorld.List().Top(120)
	dir := t.TempDir()
	golden := goldenJournal(t, dir, list, every)
	goldenBytes := journalPayloads(t, golden)

	path := filepath.Join(dir, "drained.jsonl.gz")
	jw, err := dataset.CreateJournal(path, dataset.JournalOptions{CheckpointEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg := obs.NewRegistry()
	cfg := chaosConfig(5, 8)
	cfg.Writer = &cancellingWriter{JournalWriter: jw, cancel: cancel, after: 40}
	cfg.Metrics = reg
	_, err = New(cfg).Run(ctx, list)
	if err != context.Canceled {
		t.Fatalf("drained run returned %v, want context.Canceled", err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	// The drained journal is a byte-prefix of the uninterrupted
	// dataset: finished sites only, in rank order, nothing torn.
	part := journalPayloads(t, path)
	if len(part) == 0 || len(part) >= len(goldenBytes) {
		t.Fatalf("drained journal holds %d bytes of %d — drain did not stop mid-campaign", len(part), len(goldenBytes))
	}
	if !bytes.HasPrefix(goldenBytes, part) {
		t.Fatal("drained journal is not a prefix of the uninterrupted dataset")
	}
	snap := reg.Snapshot()
	if snap.Counter("crawl_drain_total") != 1 {
		t.Error("drain not counted in metrics")
	}

	resumeAndFinish(t, path, list, every, nil)
	if got := journalPayloads(t, path); !bytes.Equal(got, goldenBytes) {
		t.Fatal("drained+resumed dataset differs from uninterrupted run")
	}
}

// TestMarkAbortedCancelledVisit pins the drain classification the
// resume byte-parity depends on: any visit that finishes under a
// cancelled context — successful, partial or failed — is journaled as a
// failed "aborted" visit, so the consumer suppresses its site and the
// resume recrawls it. A visit under a live context is left alone.
func TestMarkAbortedCancelledVisit(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		v    dataset.Visit
	}{
		{"success", dataset.Visit{Success: true, Resources: []dataset.Resource{{Host: "a.example"}}}},
		{"partial", dataset.Visit{Success: true, Partial: true, Resources: []dataset.Resource{{Host: "a.example", Failed: true, Error: "other"}}}},
		{"failed", dataset.Visit{Error: "reset", ErrorClass: string(chaos.ClassReset)}},
	} {
		live := tc.v
		markAborted(context.Background(), &live, "site.example")
		if !reflect.DeepEqual(live, tc.v) {
			t.Errorf("%s: live context changed the visit: %+v", tc.name, live)
		}
		v := tc.v
		markAborted(cancelled, &v, "site.example")
		if v.Success || v.Partial || v.ErrorClass != string(chaos.ClassAborted) || v.Error == "" {
			t.Errorf("%s: cancelled visit = success %v, partial %v, class %q, error %q; want an aborted failure",
				tc.name, v.Success, v.Partial, v.ErrorClass, v.Error)
		}
	}
}

// TestVisitBudgetDeadline pins the per-visit watchdog: with a stage
// budget smaller than one retry backoff, every retried visit is
// abandoned as deadline_exceeded instead of burning its full attempt
// budget — and the outcome is deterministic across worker counts.
func TestVisitBudgetDeadline(t *testing.T) {
	list := cwWorld.List().Top(150)
	run := func(workers int) (*Result, []byte) {
		var buf bytes.Buffer
		cfg := chaosConfig(5, workers)
		cfg.VisitBudget = 3 * time.Second // first backoff is ≥5s virtual
		cfg.Writer = dataset.NewWriter(&buf)
		res, err := New(cfg).Run(context.Background(), list)
		if err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes()
	}
	res, out := run(8)
	if res.Stats.FailedByClass[chaos.ClassDeadline] == 0 {
		t.Fatal("no visit hit the deadline watchdog under chaos + tiny budget")
	}
	if !bytes.Contains(out, []byte(`"deadline_exceeded"`)) {
		t.Error("deadline_exceeded class absent from the dataset")
	}
	_, serial := run(1)
	if !bytes.Equal(out, serial) {
		t.Error("watchdog broke worker-count determinism")
	}
}
