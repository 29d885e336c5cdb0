package topicscope_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/netmeasure/topicscope"
	"github.com/netmeasure/topicscope/internal/durable"
	"github.com/netmeasure/topicscope/internal/orchestrator"
)

// TestCLIPipeline builds the real binaries and drives the decomposed
// workflow the README documents: topics-world → topics-crawl →
// topics-analyze. Guarded by -short because it shells out to the Go
// toolchain.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping CLI pipeline")
	}
	dir := t.TempDir()
	bin := func(name string) string { return filepath.Join(dir, name) }

	for _, tool := range []string{"topics-world", "topics-crawl", "topics-analyze"} {
		cmd := exec.Command("go", "build", "-o", bin(tool), "./cmd/"+tool)
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}

	run := func(name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(bin(name), args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	list := filepath.Join(dir, "tranco.csv")
	spec := filepath.Join(dir, "world.json")
	out := run("topics-world", "-seed", "9", "-sites", "300",
		"-list", list, "-spec", spec,
		"-allowlist", filepath.Join(dir, "preload.dat"), "-corrupt")
	if !strings.Contains(out, "CORRUPTED") {
		t.Errorf("topics-world output: %s", out)
	}
	if fi, err := os.Stat(spec); err != nil || fi.Size() == 0 {
		t.Fatalf("world spec missing: %v", err)
	}

	crawl := filepath.Join(dir, "crawl.jsonl.gz")
	attest := filepath.Join(dir, "attest.jsonl")
	allow := filepath.Join(dir, "allow.dat")
	out = run("topics-crawl", "-seed", "9", "-sites", "300", "-quiet",
		"-out", crawl, "-attest", attest, "-allowlist", allow)
	if !strings.Contains(out, "attempted=300") {
		t.Errorf("topics-crawl output: %s", out)
	}

	attestBytes, err := os.ReadFile(attest)
	if err != nil {
		t.Fatal(err)
	}

	// Resume over the same output is a no-op crawl, and rewrites the
	// same attestation sweep: its callers come from the whole journal.
	out = run("topics-crawl", "-seed", "9", "-sites", "300", "-quiet", "-resume",
		"-out", crawl, "-attest", attest, "-allowlist", allow)
	if !strings.Contains(out, "skipping 300") || !strings.Contains(out, "attempted=0") {
		t.Errorf("resume output: %s", out)
	}
	if resumed, err := os.ReadFile(attest); err != nil || !bytes.Equal(resumed, attestBytes) {
		t.Errorf("resume rewrote attest.jsonl differently (%d -> %d bytes): %v", len(attestBytes), len(resumed), err)
	}

	csv := filepath.Join(dir, "calls.csv")
	out = run("topics-analyze", "-data", crawl, "-attest", attest,
		"-allowlist", allow, "-exp", "T1", "-csv", csv)
	if !strings.Contains(out, "Allowed") || !strings.Contains(out, "193") {
		t.Errorf("topics-analyze T1 output: %s", out)
	}
	csvBytes, err := os.ReadFile(csv)
	if err != nil || !strings.HasPrefix(string(csvBytes), "site,rank,phase,caller") {
		t.Errorf("calls CSV: %v", err)
	}

	for _, exp := range []string{"D1", "D1R", "D2", "F2", "F3", "A1", "F5", "F6", "F7", "E1", "X1", "all"} {
		out := run("topics-analyze", "-data", crawl, "-attest", attest,
			"-allowlist", allow, "-exp", exp)
		if len(out) == 0 {
			t.Errorf("experiment %s produced no output", exp)
		}
	}

	// Longitudinal mode: compare the crawl with itself — zero drift.
	out = run("topics-analyze", "-data", crawl, "-data2", crawl,
		"-attest", attest, "-allowlist", allow)
	if !strings.Contains(out, "max drift: 0.0%") {
		t.Errorf("self-comparison should have zero drift:\n%s", out)
	}
}

// TestCLIShardedCampaign drives the distributed pipeline end to end
// with real worker processes: topics-orch -worker-bin spawns
// topics-crawl -shard workers, merges their journals, and the merged
// dataset must be byte-identical to a plain single-process topics-crawl
// of the same campaign. topics-monitor -shards then renders the status
// files the workers left behind.
func TestCLIShardedCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping sharded CLI campaign")
	}
	dir := t.TempDir()
	bin := func(name string) string { return filepath.Join(dir, name) }
	for _, tool := range []string{"topics-crawl", "topics-orch", "topics-monitor", "topics-fsck"} {
		cmd := exec.Command("go", "build", "-o", bin(tool), "./cmd/"+tool)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}
	run := func(name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(bin(name), args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	campaign := []string{"-seed", "9", "-sites", "120", "-quiet", "-chaos", "-chaos-seed", "5"}

	single := filepath.Join(dir, "single.jsonl")
	run("topics-crawl", append(campaign,
		"-out", single,
		"-attest", filepath.Join(dir, "sa.jsonl"),
		"-allowlist", filepath.Join(dir, "sal.dat"))...)

	merged := filepath.Join(dir, "merged.jsonl")
	report := filepath.Join(dir, "report.json")
	out := run("topics-orch", append(campaign,
		"-shards", "4", "-worker-bin", bin("topics-crawl"),
		"-out", merged, "-report", report,
		"-attest", filepath.Join(dir, "ma.jsonl"),
		"-allowlist", filepath.Join(dir, "mal.dat"))...)
	if !strings.Contains(out, "4 shards, 0 restarts") {
		t.Errorf("topics-orch output: %s", out)
	}

	singleBytes, err := durable.CanonicalBytes(single)
	if err != nil {
		t.Fatal(err)
	}
	mergedBytes, err := durable.CanonicalBytes(merged)
	if err != nil {
		t.Fatal(err)
	}
	if len(singleBytes) == 0 || !bytes.Equal(singleBytes, mergedBytes) {
		t.Fatalf("exec-sharded dataset differs from single-process crawl (%d vs %d bytes)", len(mergedBytes), len(singleBytes))
	}
	if fi, err := os.Stat(report); err != nil || fi.Size() == 0 {
		t.Fatalf("report artifact missing: %v", err)
	}
	// The orchestrator's report is the artifact fsck recomputes from the
	// shard journals: the verify must read clean (run fails on exit 1).
	run("topics-fsck", append(campaign, "-data", merged, "-shards", "4", "-report", report)...)

	out = run("topics-monitor", "-shards", merged)
	if !strings.Contains(out, "(4 shards)") || !strings.Contains(out, "done") {
		t.Errorf("topics-monitor -shards output: %s", out)
	}
}

// TestCLITLSPipeline drives topics-serve -tls and topics-crawl
// -connect-tls over a real HTTPS listener.
func TestCLITLSPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping TLS CLI pipeline")
	}
	dir := t.TempDir()
	bin := func(name string) string { return filepath.Join(dir, name) }
	for _, tool := range []string{"topics-serve", "topics-crawl"} {
		cmd := exec.Command("go", "build", "-o", bin(tool), "./cmd/"+tool)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}

	caPath := filepath.Join(dir, "ca.pem")
	serve := exec.Command(bin("topics-serve"), "-seed", "13", "-sites", "120",
		"-addr", "127.0.0.1:0", "-tls", "-ca-cert", caPath)
	stdout, err := serve.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := serve.Start(); err != nil {
		t.Fatal(err)
	}
	defer serve.Process.Kill() //nolint:errcheck // test teardown

	// Parse the bound address from the banner line.
	buf := make([]byte, 4096)
	n, _ := stdout.Read(buf)
	banner := string(buf[:n])
	i := strings.Index(banner, "https://")
	if i < 0 {
		t.Fatalf("no https address in banner: %q", banner)
	}
	addr := banner[i+len("https://"):]
	addr = strings.Fields(addr)[0]

	out, err := exec.Command(bin("topics-crawl"), "-seed", "13", "-sites", "120",
		"-quiet", "-connect-tls", addr, "-ca-cert", caPath,
		"-out", filepath.Join(dir, "c.jsonl"),
		"-attest", filepath.Join(dir, "a.jsonl"),
		"-allowlist", filepath.Join(dir, "al.dat")).CombinedOutput()
	if err != nil {
		t.Fatalf("topics-crawl over TLS: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "attempted=120") {
		t.Errorf("TLS crawl output: %s", out)
	}
}

// buildTools compiles the named cmd/ binaries into dir and returns a
// runner that fails the test on a non-zero exit.
func buildTools(t *testing.T, dir string, tools ...string) func(name string, args ...string) string {
	t.Helper()
	for _, tool := range tools {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./cmd/"+tool)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}
	return func(name string, args ...string) string {
		t.Helper()
		out, err := exec.Command(filepath.Join(dir, name), args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}
}

// TestCLIRetriesMeanTheSame pins the one -retries rule ("extra attempts
// per navigation/fetch; 0 disables retries") across every CLI that
// crawls: for -retries 0 and 2 under chaos, topics-crawl, a -shard
// worker, topics-report, topics-orch (in-process and through the
// ExecLauncher's argv) and a topics-fsck recrawl of a missing journal
// must all write the same dataset.
func TestCLIRetriesMeanTheSame(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping CLI retries table")
	}
	dir := t.TempDir()
	run := buildTools(t, dir, "topics-crawl", "topics-report", "topics-orch", "topics-fsck")
	path := func(name string) string { return filepath.Join(dir, name) }

	datasets := map[int][]byte{}
	for _, retries := range []int{0, 2} {
		campaign := []string{"-seed", "9", "-sites", "120", "-quiet", "-chaos", "-chaos-seed", "5", "-retries", strconv.Itoa(retries)}
		name := func(cli string) string { return path(cli + "-" + strconv.Itoa(retries) + ".jsonl") }
		side := func(cli string) []string {
			return []string{"-attest", path(cli + ".att"), "-allowlist", path(cli + ".dat")}
		}
		rows := []struct {
			cli, journal string
			args         []string
		}{
			{"topics-crawl", name("crawl"), append([]string{"-out", name("crawl")}, side("crawl")...)},
			{"topics-crawl", orchestrator.ShardPath(name("shard"), 0), []string{"-shard", "0/1", "-out", name("shard")}},
			{"topics-report", name("report"), []string{"-data", name("report"), "-out", path("report.txt")}},
			{"topics-orch", name("orch"), append([]string{"-shards", "2", "-out", name("orch")}, side("orch")...)},
			{"topics-orch", name("exec"), append([]string{"-shards", "2", "-worker-bin", path("topics-crawl"), "-out", name("exec")}, side("exec")...)},
			{"topics-fsck", name("fsck"), []string{"-repair", "-data", name("fsck")}},
		}
		for _, row := range rows {
			run(row.cli, append(append([]string{}, campaign...), row.args...)...)
			got, err := durable.CanonicalBytes(row.journal)
			if err != nil {
				t.Fatal(err)
			}
			want, ok := datasets[retries]
			if !ok {
				datasets[retries] = got
				continue
			}
			if !bytes.Equal(got, want) {
				t.Errorf("-retries %d: %s %v wrote a different dataset than topics-crawl", retries, row.cli, row.args)
			}
		}
	}
	if bytes.Equal(datasets[0], datasets[2]) {
		t.Fatal("-retries 0 and 2 crawl the same dataset under chaos — the table is vacuous")
	}
}

// traceCanceller cancels a campaign once its trace stream has taken a
// fixed number of buffered writes — a deterministic stand-in for
// SIGTERM arriving mid-crawl, like the crawler's drain tests.
type traceCanceller struct {
	cancel context.CancelFunc
	after  int
	n      int
}

func (c *traceCanceller) Write(p []byte) (int, error) {
	if c.n++; c.n == c.after {
		c.cancel()
	}
	return len(p), nil
}

// TestCLIResumeAfterDrain interrupts a journaled campaign mid-crawl,
// finishes it with topics-crawl -resume, and demands a clean run's
// artifacts: the dataset, attest.jsonl (whose callers include those
// seen only before the interruption), and the closing record count and
// success rate, which describe the whole journal.
func TestCLIResumeAfterDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping CLI drain resume")
	}
	dir := t.TempDir()
	run := buildTools(t, dir, "topics-crawl")
	path := func(name string) string { return filepath.Join(dir, name) }
	campaign := []string{"-seed", "9", "-sites", "300", "-quiet", "-chaos"}

	clean := run("topics-crawl", append(campaign, "-out", path("clean.jsonl.gz"),
		"-attest", path("clean.att"), "-allowlist", path("clean.dat"))...)

	drained := path("drained.jsonl.gz")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := topicscope.Campaign{
		Seed: 9, Sites: 300, Workers: 8, Chaos: true, ChaosSeed: 1,
		OutputPath: drained, Trace: &traceCanceller{cancel: cancel, after: 40},
	}.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted campaign returned %v, want context.Canceled", err)
	}
	records := regexp.MustCompile(`\((\d+) visit records\)`)
	cleanRecords, _ := strconv.ParseInt(records.FindStringSubmatch(clean)[1], 10, 64)
	if m := topicscope.LoadManifest(drained); m == nil || m.Records == 0 || m.Records >= cleanRecords {
		t.Fatalf("drain did not stop mid-campaign: manifest %+v of %d records", m, cleanRecords)
	}

	resumed := run("topics-crawl", append(campaign, "-resume", "-out", drained,
		"-attest", path("resumed.att"), "-allowlist", path("resumed.dat"))...)
	want, err := durable.CanonicalBytes(path("clean.jsonl.gz"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := durable.CanonicalBytes(drained); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("resumed dataset differs from the clean run: %v", err)
	}
	for _, name := range []string{".att", ".dat"} {
		if !bytes.Equal(readAll(t, path("clean"+name)), readAll(t, path("resumed"+name))) {
			t.Errorf("resumed %s differs from the clean run's", name)
		}
	}
	rate := regexp.MustCompile(`success rate: \S+`)
	for _, re := range []*regexp.Regexp{records, rate} {
		if c, r := re.FindString(clean), re.FindString(resumed); c != r {
			t.Errorf("closing line %q after resume, %q on the clean run", r, c)
		}
	}
}

func readAll(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
