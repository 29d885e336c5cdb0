package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/netmeasure/topicscope/internal/attestation"
	"github.com/netmeasure/topicscope/internal/dataset"
	"github.com/netmeasure/topicscope/internal/durable"
)

// TestJournalRangeFoldMatchesOneRange pins the member-range fold to the
// one-range (sequential) fold: at every worker count, from byte 0 and
// from a committed offset, with and without a limit, the folded
// accumulator finalizes to the same Index and reports the same records
// and truncation.
func TestJournalRangeFoldMatchesOneRange(t *testing.T) {
	in := chaosInput(t)
	path := filepath.Join(t.TempDir(), "crawl.jsonl.gz")
	foldJournal(t, path, in.Data.Visits, 10, &Input{Allowlist: in.Allowlist})
	fi := durable.LoadFrameIndex(path)
	mid := fi.Entries[len(fi.Entries)/3]
	for _, c := range []struct {
		name          string
		offset, limit int64
	}{
		{"all", 0, -1},
		{"from-offset", mid.Offset, -1},
		{"limit-at-boundary", 0, mid.Records},
		{"limit-mid-member", 0, mid.Records + 5},
	} {
		fold := func(workers int) (*Index, LiveStats) {
			live := NewLiveIndex(&Input{Allowlist: in.Allowlist})
			var st LiveStats
			if err := foldRecords(path, c.offset, c.limit, live, &st, workers); err != nil {
				t.Fatalf("%s: workers=%d: %v", c.name, workers, err)
			}
			return live.finalize(in), st
		}
		want, wantSt := fold(1)
		if c.limit >= 0 && wantSt.TailRecords != c.limit {
			t.Fatalf("%s: one-range fold took %d records, want the limit %d", c.name, wantSt.TailRecords, c.limit)
		}
		for workers := 2; workers <= 4; workers++ {
			label := fmt.Sprintf("%s: workers=%d", c.name, workers)
			if n := len(dataset.MemberRanges(path, c.offset, c.limit, workers)); n != workers+1 {
				t.Fatalf("%s: %d ranges, want %d committed plus the tail", label, n, workers)
			}
			got, st := fold(workers)
			assertIndexEqual(t, label, got, want)
			if st.TailRecords != wantSt.TailRecords || st.Truncated != wantSt.Truncated {
				t.Fatalf("%s: stats %+v, one range %+v", label, st, wantSt)
			}
		}
	}
}

// rangeFuzzVisits are synthetic records of 120 sites — both phases,
// failures, repeated resource hosts, allowed and other callers — small
// enough for a fuzz target's setup to stay cheap.
func rangeFuzzVisits() []dataset.Visit {
	at := time.Date(2024, 3, 4, 0, 0, 0, 0, time.UTC)
	var visits []dataset.Visit
	for i := range 120 {
		site := fmt.Sprintf("site%03d.com", i)
		cdn := fmt.Sprintf("cdn%d.example", i%5)
		v := dataset.Visit{
			Site: site, Rank: i + 1, Phase: dataset.BeforeAccept, Success: i%9 != 0,
			BannerDetected: i%2 == 0, Accepted: i%4 == 0, CMP: "OneTrust",
			FetchedAt: at.Add(time.Duration(i) * 7 * time.Hour),
			Resources: []dataset.Resource{{Host: site}, {Host: cdn, ThirdParty: true}, {Host: cdn, ThirdParty: true}},
			Calls:     []dataset.TopicsCall{{Caller: fmt.Sprintf("cp%d.example", i%7), Type: dataset.CallJavaScript}},
		}
		if !v.Success {
			v.Error, v.Resources, v.Calls = "timeout", nil, nil
		}
		visits = append(visits, v)
		if v.Success && v.Accepted {
			v.Phase = dataset.AfterAccept
			v.Calls = append(v.Calls, dataset.TopicsCall{Caller: "cp1.example", Type: dataset.CallFetch})
			visits = append(visits, v)
		}
	}
	return visits
}

// FuzzFrameIndexRanges feeds a small real journal an arbitrary .fidx:
// whatever it claims, LoadFile and the journal fold — at any worker
// count, with or without a limit — must equal the sequential read of the
// same journal. The .fidx may decide whether a read splits, never what
// it returns.
func FuzzFrameIndexRanges(f *testing.F) {
	in := &Input{Allowlist: attestation.NewAllowlist("cp1.example", "cp2.example")}
	visits := rangeFuzzVisits()
	path := filepath.Join(f.TempDir(), "crawl.jsonl.gz")
	foldJournal(f, path, visits, 6, in)
	want := &dataset.Dataset{Visits: visits}
	wantIdx := BuildIndex(&Input{Data: want, Allowlist: in.Allowlist})
	// Seeds: the real .fidx, then valid ones that lie — every interior
	// record count one high or one low, the last one low, every interior
	// offset inside a member — one that keeps every other boundary, and
	// ones the loader rejects outright.
	orig := durable.LoadFrameIndex(path)
	lie := func(edit func(es []durable.FrameEntry) []durable.FrameEntry) []byte {
		fi := *orig
		fi.Entries = edit(slices.Clone(orig.Entries))
		if err := fi.Store(path); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(durable.FrameIndexPath(path))
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	interior := func(change func(e *durable.FrameEntry)) func([]durable.FrameEntry) []durable.FrameEntry {
		return func(es []durable.FrameEntry) []durable.FrameEntry {
			for i := range es[:len(es)-1] {
				change(&es[i])
			}
			return es
		}
	}
	fidx := lie(interior(func(*durable.FrameEntry) {}))
	f.Add(fidx, uint8(1), int16(-1))
	f.Add(fidx, uint8(3), int16(70))
	high := lie(interior(func(e *durable.FrameEntry) { e.Records++ }))
	f.Add(high, uint8(0), int16(-1))
	f.Add(high, uint8(0), int16(90))
	f.Add(lie(interior(func(e *durable.FrameEntry) { e.Records-- })), uint8(0), int16(-1))
	f.Add(lie(func(es []durable.FrameEntry) []durable.FrameEntry {
		es[len(es)-1].Records--
		return es
	}), uint8(0), int16(-1))
	f.Add(lie(interior(func(e *durable.FrameEntry) { e.Offset += 7 })), uint8(1), int16(-1))
	f.Add(lie(func(es []durable.FrameEntry) []durable.FrameEntry {
		var kept []durable.FrameEntry
		for i := 1; i < len(es); i += 2 {
			kept = append(kept, es[i])
		}
		return kept
	}), uint8(2), int16(100))
	f.Add([]byte(strings.Replace(string(fidx), `crawl.jsonl.gz`, `other.jsonl.gz`, 1)), uint8(1), int16(-1))
	f.Add([]byte(`{"version":1,"journal":"crawl.jsonl.gz","entries":[{"offset":1,"records":1,"rank":1}]}`), uint8(3), int16(-1))
	f.Fuzz(func(t *testing.T, fidx []byte, workers uint8, limit int16) {
		if err := os.WriteFile(durable.FrameIndexPath(path), fidx, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := dataset.LoadFile(path)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("LoadFile diverges from the sequential read (err %v)", err)
		}
		fold := func(workers int, limit int64) (*Index, LiveStats) {
			live := NewLiveIndex(&Input{Allowlist: in.Allowlist})
			var st LiveStats
			if err := foldRecords(path, 0, limit, live, &st, workers); err != nil {
				t.Fatalf("fold: workers=%d limit=%d: %v", workers, limit, err)
			}
			return live.finalize(in), st
		}
		n := 2 + int(workers%3)
		idx, st := fold(n, -1)
		if st.TailRecords != int64(len(visits)) || st.Truncated {
			t.Fatalf("fold: workers=%d: stats %+v for %d records", n, st, len(visits))
		}
		assertIndexEqual(t, "fold", idx, wantIdx)
		if limit >= 0 {
			ref, refSt := fold(1, int64(limit))
			got, st := fold(n, int64(limit))
			if st.TailRecords != refSt.TailRecords {
				t.Fatalf("fold: workers=%d limit=%d: %d records, sequential %d", n, limit, st.TailRecords, refSt.TailRecords)
			}
			assertIndexEqual(t, "limited fold", got, ref)
		}
	})
}
