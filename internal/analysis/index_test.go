package analysis

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestIndexParity is the golden test of the index rewrite: every
// experiment computed from the single-pass Index must be deeply equal to
// the legacy full-scan implementation, on the shared campaign fixture
// and on an empty dataset, including non-default parameter variants.
func TestIndexParity(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   *Input
	}{
		{"campaign", input(t)},
		{"empty", emptyInput()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := tc.in
			check := func(section string, indexed, legacy any) {
				t.Helper()
				if !reflect.DeepEqual(indexed, legacy) {
					t.Errorf("%s: indexed result diverges from legacy scan\nindexed: %+v\nlegacy:  %+v",
						section, indexed, legacy)
				}
			}
			check("Overview", ComputeOverview(in), legacyComputeOverview(in))
			check("Reliability", ComputeReliability(in), legacyComputeReliability(in))
			check("Table1", ComputeTable1(in), legacyComputeTable1(in))
			check("Anomaly", ComputeAnomaly(in), legacyComputeAnomaly(in))
			check("Figure7", ComputeFigure7(in), legacyComputeFigure7(in))
			check("Enrolment", ComputeEnrolment(in), legacyComputeEnrolment(in))
			check("CallTypes", ComputeCallTypes(in), legacyComputeCallTypes(in))
			check("Languages", ComputeLanguages(in), legacyComputeLanguages(in))
			for _, topN := range []int{0, 4, 15} {
				check(fmt.Sprintf("Figure2(topN=%d)", topN),
					ComputeFigure2(in, topN), legacyComputeFigure2(in, topN))
				check(fmt.Sprintf("Figure5(topN=%d)", topN),
					ComputeFigure5(in, topN), legacyComputeFigure5(in, topN))
			}
			for _, minPresence := range []int{0, 12, 80} {
				check(fmt.Sprintf("Figure3(min=%d)", minPresence),
					ComputeFigure3(in, minPresence, 15), legacyComputeFigure3(in, minPresence, 15))
			}
			check("Figure6(auto)", ComputeFigure6(in, nil), legacyComputeFigure6(in, nil))
			check("Figure6(explicit)",
				ComputeFigure6(in, []string{"criteo.com", "yandex.com"}),
				legacyComputeFigure6(in, []string{"criteo.com", "yandex.com"}))
			check("Run", Run(in), legacyRun(in))
		})
	}
}

// TestIndexWorkerDeterminism proves the merge invariant: the index — and
// every figure derived from it — is identical whether built by one
// worker or many, so output can never depend on GOMAXPROCS.
func TestIndexWorkerDeterminism(t *testing.T) {
	shared := input(t)
	base := foldStriped(shared, 1).finalize(shared)
	for _, workers := range []int{2, 3, 8, 64} {
		idx := foldStriped(shared, workers).finalize(shared)
		if !reflect.DeepEqual(idx.called, base.called) {
			t.Errorf("workers=%d: called map diverges", workers)
		}
		if !reflect.DeepEqual(idx.present, base.present) {
			t.Errorf("workers=%d: present map diverges", workers)
		}
		if !reflect.DeepEqual(idx.callers, base.callers) {
			t.Errorf("workers=%d: caller classification diverges", workers)
		}
		if !reflect.DeepEqual(idx.table1, base.table1) ||
			!reflect.DeepEqual(idx.overview, base.overview) ||
			!reflect.DeepEqual(idx.reliability, base.reliability) ||
			!reflect.DeepEqual(idx.anomaly, base.anomaly) ||
			!reflect.DeepEqual(idx.figure7, base.figure7) ||
			!reflect.DeepEqual(idx.callTypes, base.callTypes) ||
			!reflect.DeepEqual(idx.languages, base.languages) ||
			!reflect.DeepEqual(idx.enrolment, base.enrolment) {
			t.Errorf("workers=%d: precomputed section diverges", workers)
		}
	}
}

// TestIndexConcurrentUse exercises the concurrency contract under the
// race detector: many goroutines trigger the lazy index build and read
// figures at the same time, on a fresh Input so the build itself races
// with the queries.
func TestIndexConcurrentUse(t *testing.T) {
	warm := input(t)
	fresh := &Input{Data: warm.Data, Allowlist: warm.Allowlist, Attestations: warm.Attestations}

	want := ComputeTable1(warm)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 4 {
			case 0:
				if got := ComputeTable1(fresh); !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent Table1 diverges: %+v", got)
				}
			case 1:
				ComputeFigure2(fresh, 15)
				ComputeFigure6(fresh, nil)
			case 2:
				ComputeFigure3(fresh, 0, 15)
				ComputeAnomaly(fresh)
			case 3:
				Run(fresh)
			}
		}(g)
	}
	wg.Wait()
}

// TestIndexInterning checks the etld cache actually deduplicates: the
// number of cached hostnames is bounded by the distinct hosts of the
// dataset, not by the number of visit records.
func TestIndexInterning(t *testing.T) {
	in := input(t)
	idx := in.Index()
	records := 0
	for i := range in.Data.Visits {
		records += len(in.Data.Visits[i].Resources) + len(in.Data.Visits[i].Calls)
	}
	if idx.Hosts() == 0 {
		t.Fatal("empty etld cache after build")
	}
	if idx.Hosts() >= records {
		t.Errorf("cache holds %d hosts for %d records — no deduplication", idx.Hosts(), records)
	}
	t.Logf("interned %d distinct hosts from %d resource/call records", idx.Hosts(), records)
}
