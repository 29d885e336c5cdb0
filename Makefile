# topicscope — build/test/reproduce targets.

GO ?= go

.PHONY: all build test race race-core storage-faults cover bench bench-json bench-gate bench-smoke fuzz golden report report-check lint lint-escape live clean

all: build lint test race-core

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Focused race pass over the packages with real concurrency: the
# crawler's worker pool + reorder buffer (including the kill-and-resume
# crash matrix and graceful-drain tests), the webserver (chaos handler
# and page cache included), the analysis index's sharded build +
# concurrent reads, the obs registry/summary sinks that crawl workers
# feed concurrently, the durable journal the crawl writes through, the
# orchestrator's coordinator (concurrent shard supervision + restart
# accounting), the chaos fault FS + fsck repair path (parallel recrawls
# through the storage seam), and the shared serving-path state (etld
# cache, topics engine), and the browser, whose per-page-load request
# is reused across fetches — fast enough to ride in `make all`.
race-core:
	$(GO) test -race ./internal/analysis/ ./internal/browser/ ./internal/crawler/ ./internal/webserver/ ./internal/obs/ ./internal/durable/ ./internal/dataset/ ./internal/orchestrator/ ./internal/etld/ ./internal/topics/ ./internal/chaos/ ./internal/fsck/

# The storage-fault matrix: every artifact-level fault class (ENOSPC,
# EIO blips, short writes, failed fsyncs, torn renames, bit flips)
# against the write-path retry policy, the crash matrix under storage
# weather, and the fsck repair-parity invariant — inject, verify,
# repair, byte-identical.
storage-faults:
	$(GO) test -count=1 ./internal/chaos/ ./internal/fsck/
	$(GO) test -count=1 -run 'TestStorageFault|TestWriteFileAtomicAbortMatrix|TestSyncDir|TestRetryPolicy' ./internal/crawler/ ./internal/durable/
	$(GO) test -count=1 -race -run 'TestRepairParityFaultMatrix|TestRepairParityWithoutRetries|TestVerifyCleanCampaignWritesNothing|TestRepairCleanCampaignIsNoop|TestCampaignSurvivesTransientStorageFaults|TestCoordinatorFsckHealsCorruptShard' ./internal/fsck/ ./internal/orchestrator/

# Static analysis: go vet plus the repo's own invariant suite
# (cmd/topicslint: determinism, vclock, etld, errwrap, atomicwrite,
# hotpath, locks, goroleak, structlayout — see DESIGN.md
# "Machine-enforced invariants"). The binary is compiled once (cached by
# the go build cache) and then run over every package; topicslint loads
# packages from source, so it needs no module proxy or network.
lint:
	$(GO) vet ./...
	$(GO) build -o $(CURDIR)/.bin/topicslint ./cmd/topicslint
	$(CURDIR)/.bin/topicslint ./...

# Escape-analysis cross-check of the hotpath zeroalloc contracts: the
# static hotpath analyzer is a conservative syntactic approximation;
# `go build -gcflags=-m=2` is the compiler's ground truth. Separate
# from `lint` because it recompiles the whole tree with escape
# diagnostics on.
lint-escape:
	$(GO) build -o $(CURDIR)/.bin/topicslint ./cmd/topicslint
	$(CURDIR)/.bin/topicslint -escape ./...

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable benchmark baseline: the committed BENCH_report.json
# is the reference later sessions diff against.
bench-json:
	$(GO) test -run '^$$' -bench=. -benchmem . | $(GO) run ./cmd/benchjson > BENCH_report.json

# Benchmark regression gate: re-run the suite and fail when a
# machine-independent metric regressed more than 20% against the
# committed baseline — allocs/op and B/op. ns/op is advisory — it
# depends on the host. The short -benchtime keeps CI cheap; allocation
# counts stabilise within a few iterations.
bench-gate:
	$(GO) test -run '^$$' -bench=. -benchtime=0.2s -benchmem . \
		| $(GO) run ./cmd/benchjson -check BENCH_report.json -tol 0.2

# Build and smoke-test the benchmark module (bench/, its own go.mod
# that replaces this module with ../): a library change that breaks the
# benchmark's imports fails here, not in the benchmark run.
bench-smoke:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# Short fuzz pass over every parser.
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=10s ./internal/htmlx/
	$(GO) test -fuzz=FuzzReadAllowlist -fuzztime=10s ./internal/attestation/
	$(GO) test -fuzz=FuzzParseAttestation -fuzztime=10s ./internal/attestation/
	$(GO) test -fuzz=FuzzParse -fuzztime=10s ./internal/tranco/
	$(GO) test -fuzz=FuzzTraceDecode -fuzztime=10s ./internal/obs/
	$(GO) test -fuzz=FuzzCompletedSites -fuzztime=10s ./internal/dataset/
	$(GO) test -fuzz=FuzzReadVisits -fuzztime=10s ./internal/dataset/
	$(GO) test -fuzz=FuzzDecodeVisit -fuzztime=10s ./internal/dataset/
	$(GO) test -fuzz=FuzzScanRecords -fuzztime=10s ./internal/durable/
	$(GO) test -fuzz=FuzzManifestDecode -fuzztime=10s ./internal/durable/
	$(GO) test -fuzz=FuzzFrameIndexDecode -fuzztime=10s ./internal/durable/
	$(GO) test -fuzz=FuzzFsckReportDecode -fuzztime=10s ./internal/fsck/
	$(GO) test -fuzz=FuzzIndexSnapshotDecode -fuzztime=10s ./internal/analysis/
	$(GO) test -fuzz=FuzzFrameIndexRanges -fuzztime=10s ./internal/analysis/

# The incremental-analysis equivalence suite: fold-vs-build parity at
# every prefix, the .fidx member-range reader and fold against the
# sequential read, snapshot round trip + corruption degradation, the
# crash/resume index-snapshot matrix, live-vs-merged shard property, the
# .idx segment log's linear writes and history-independent final bytes,
# and the public-API live report byte-identity (see DESIGN.md
# "Incremental analysis").
live:
	$(GO) test -run 'TestIncrementalIndexParity|TestLiveIndexMergeProperty|TestLiveSnapshotRoundTrip|TestLiveSnapshotCorruptionDegrades|TestLiveSinkResumeAcrossCheckpoint|TestLiveSnapshotHistoryIndependence|TestLiveSnapshotWritesStayLinear|TestJournalRangeFoldMatchesOneRange' -count=1 ./internal/analysis/
	$(GO) test -run 'TestLoadFileMemberRangesMatchSequential|TestMemberRangesBalanceAndLimit' -count=1 ./internal/dataset/
	$(GO) test -run 'TestCrashResumeIndexSnapshot|TestLiveReportReadsOnlyTail' -count=1 ./internal/crawler/
	$(GO) test -run 'TestFrameIndex|TestScanFramesMatchesScanRecords' -count=1 ./internal/durable/
	$(GO) test -run 'TestLiveReportMatchesPostHoc' -count=1 .

# Regenerate the committed end-to-end pipeline fixture
# (testdata/golden_pipeline.json) after an intentional output change;
# review the diff before committing.
golden:
	UPDATE_GOLDEN=1 $(GO) test -run '^TestPipelineGolden$$' .

# The canonical full-scale reproduction run (EXPERIMENTS.md).
REPORT_FLAGS = -seed 1 -sites 50000 -workers 32

report:
	$(GO) run ./cmd/topics-report $(REPORT_FLAGS) -out report_full.txt -json report_full.json

# Opt-in pin of the committed canonical report: rerun it into a temp
# dir and fail unless both files match report_full.json/.txt byte for
# byte (about 12 s on 2 vCPUs).
report-check:
	@tmp=$$(mktemp -d); \
	$(GO) run ./cmd/topics-report $(REPORT_FLAGS) -out $$tmp/report_full.txt -json $$tmp/report_full.json \
		&& diff -u report_full.json $$tmp/report_full.json && diff -u report_full.txt $$tmp/report_full.txt; \
	status=$$?; rm -rf $$tmp; exit $$status

clean:
	rm -f report_full.txt report_full.json test_output.txt bench_output.txt
	rm -rf .bin
