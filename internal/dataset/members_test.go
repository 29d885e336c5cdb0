package dataset

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/netmeasure/topicscope/internal/durable"
)

// memberVisits returns n distinct visit records of varying size.
func memberVisits(n int) []Visit {
	visits := make([]Visit, n)
	for i := range visits {
		var calls []TopicsCall
		for range i % 4 {
			calls = append(calls, sampleCall(fmt.Sprintf("cp%d.com", i%9)))
		}
		visits[i] = sampleVisit(fmt.Sprintf("s%03d.com", i), BeforeAccept, calls...)
		visits[i].Rank = i + 1
	}
	return visits
}

// writeMemberJournal journals visits with a checkpoint (one gzip member
// and one .fidx entry) every `every` records. When keepAt > 0 the
// manifest and .fidx as they stood after that many records are put
// back once the journal is closed: the records past them become an
// uncommitted tail, the state a crash between Journal.Sync and the
// sidecar rewrites leaves.
func writeMemberJournal(t *testing.T, path string, visits []Visit, every, keepAt int) {
	t.Helper()
	jw, err := CreateJournal(path, JournalOptions{CheckpointEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	var manifest, fidx []byte
	for i := range visits {
		if err := jw.Write(&visits[i]); err != nil {
			t.Fatal(err)
		}
		if err := jw.SiteCompleted(visits[i].Rank, visits[i].Site); err != nil {
			t.Fatal(err)
		}
		if i+1 == keepAt {
			manifest = readFile(t, durable.ManifestPath(path))
			fidx = readFile(t, durable.FrameIndexPath(path))
		}
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	if keepAt > 0 {
		writeFile(t, durable.ManifestPath(path), manifest)
		writeFile(t, durable.FrameIndexPath(path), fidx)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// editFrameIndex rewrites a journal's .fidx through edit.
func editFrameIndex(t *testing.T, path string, edit func(fi *durable.FrameIndex)) {
	t.Helper()
	fi := durable.LoadFrameIndex(path)
	if fi == nil {
		t.Fatal("no usable .fidx")
	}
	edit(fi)
	if err := fi.Store(path); err != nil {
		t.Fatal(err)
	}
}

// regzip rewrites the plain journal at plain as the .gz journal gz, one
// gzip member per .fidx range (and one for the tail), with its manifest
// and a .fidx whose offsets point at the new member boundaries.
func regzip(t *testing.T, plain, gz string) {
	t.Helper()
	data := readFile(t, plain)
	fi := durable.LoadFrameIndex(plain)
	m := durable.LoadManifest(plain)
	if fi == nil || m == nil {
		t.Fatal("plain journal lacks its sidecars")
	}
	var out bytes.Buffer
	member := func(b []byte) {
		zw := gzip.NewWriter(&out)
		if _, err := zw.Write(b); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	var prev int64
	for i, e := range fi.Entries {
		member(data[prev:e.Offset])
		prev = e.Offset
		if e.Offset == m.Offset {
			m.Offset = int64(out.Len())
		}
		fi.Entries[i].Offset = int64(out.Len())
	}
	if prev < int64(len(data)) {
		member(data[prev:])
	}
	writeFile(t, gz, out.Bytes())
	if err := m.Store(gz); err != nil {
		t.Fatal(err)
	}
	if err := fi.Store(gz); err != nil {
		t.Fatal(err)
	}
}

// corruptMiddleRecord flips one payload byte of the first record after
// the middle .fidx boundary of a plain journal, so its frame CRC fails.
func corruptMiddleRecord(t *testing.T, path string) {
	t.Helper()
	fi := durable.LoadFrameIndex(path)
	data := readFile(t, path)
	at := fi.Entries[len(fi.Entries)/2].Offset
	at += int64(bytes.IndexByte(data[at:], '\n')) + 3 // inside the payload's first key
	data[at] ^= 0x20
	writeFile(t, path, data)
}

// TestLoadFileMemberRangesMatchSequential pins the member-range reader
// to the sequential one: on every journal shape — finished, crashed with
// an uncommitted tail, torn, with a lying or foreign .fidx, without one,
// uncompressed, or with a corrupt record in a middle member — LoadFile at
// any worker count returns exactly what the sequential Load returns, or
// fails with its identical error. split says what becomes of the ranges:
// a .fidx that lies about the boundaries a split cuts at (every interior
// one, here) must get its split rejected, forcing the sequential
// fallback, and one the loader cannot use must not split at all.
func TestLoadFileMemberRangesMatchSequential(t *testing.T) {
	visits := memberVisits(150)
	for _, tc := range []struct {
		name  string
		build func(t *testing.T, dir string) string
		split string // "none", "rejected" or "verified"
	}{
		{"finished", func(t *testing.T, dir string) string {
			path := filepath.Join(dir, "crawl.jsonl.gz")
			writeMemberJournal(t, path, visits, 7, 0)
			return path
		}, "verified"},
		{"uncommitted-tail", func(t *testing.T, dir string) string {
			path := filepath.Join(dir, "crawl.jsonl.gz")
			writeMemberJournal(t, path, visits, 7, 98)
			return path
		}, "verified"},
		{"torn-tail", func(t *testing.T, dir string) string {
			path := filepath.Join(dir, "crawl.jsonl.gz")
			writeMemberJournal(t, path, visits, 7, 98)
			data := readFile(t, path)
			writeFile(t, path, data[:len(data)-9])
			return path
		}, "rejected"},
		{"fidx-mid-member", func(t *testing.T, dir string) string {
			path := filepath.Join(dir, "crawl.jsonl.gz")
			writeMemberJournal(t, path, visits, 7, 0)
			editFrameIndex(t, path, func(fi *durable.FrameIndex) {
				for i := range fi.Entries[:len(fi.Entries)-1] {
					fi.Entries[i].Offset += 7
				}
			})
			return path
		}, "rejected"},
		{"fidx-inflated-records", func(t *testing.T, dir string) string {
			path := filepath.Join(dir, "crawl.jsonl.gz")
			writeMemberJournal(t, path, visits, 7, 0)
			editFrameIndex(t, path, func(fi *durable.FrameIndex) {
				for i := range fi.Entries[:len(fi.Entries)-1] {
					fi.Entries[i].Records++
				}
			})
			return path
		}, "rejected"},
		{"fidx-inflated-total", func(t *testing.T, dir string) string {
			path := filepath.Join(dir, "crawl.jsonl.gz")
			writeMemberJournal(t, path, visits, 7, 0)
			// Past the manifest's count: the loader must refuse to size
			// its slots from it.
			editFrameIndex(t, path, func(fi *durable.FrameIndex) {
				for i := len(fi.Entries) / 2; i < len(fi.Entries); i++ {
					fi.Entries[i].Records += 1 << 40
				}
			})
			return path
		}, "rejected"},
		{"fidx-names-other-journal", func(t *testing.T, dir string) string {
			path := filepath.Join(dir, "crawl.jsonl.gz")
			writeMemberJournal(t, path, visits, 7, 0)
			fi := durable.LoadFrameIndex(path)
			if err := fi.Store(filepath.Join(dir, "other.jsonl.gz")); err != nil {
				t.Fatal(err)
			}
			writeFile(t, durable.FrameIndexPath(path), readFile(t, durable.FrameIndexPath(filepath.Join(dir, "other.jsonl.gz"))))
			return path
		}, "none"},
		{"fidx-of-other-journal", func(t *testing.T, dir string) string {
			// A .fidx copied from a journal of other records under this
			// journal's name: real member boundaries, wrong ones.
			other := filepath.Join(dir, "other", "crawl.jsonl.gz")
			if err := os.Mkdir(filepath.Dir(other), 0o755); err != nil {
				t.Fatal(err)
			}
			writeMemberJournal(t, other, memberVisits(100)[10:], 4, 0)
			path := filepath.Join(dir, "crawl.jsonl.gz")
			writeMemberJournal(t, path, visits, 7, 0)
			writeFile(t, durable.FrameIndexPath(path), readFile(t, durable.FrameIndexPath(other)))
			return path
		}, "rejected"},
		{"no-fidx", func(t *testing.T, dir string) string {
			path := filepath.Join(dir, "crawl.jsonl.gz")
			writeMemberJournal(t, path, visits, 7, 0)
			durable.RemoveFrameIndexFS(nil, path)
			return path
		}, "none"},
		{"plain", func(t *testing.T, dir string) string {
			path := filepath.Join(dir, "crawl.jsonl")
			writeMemberJournal(t, path, visits, 7, 98)
			return path
		}, "verified"},
		{"plain-fidx-mid-line", func(t *testing.T, dir string) string {
			// Each interior boundary one byte early, before its record's
			// newline: every line still parses, but no range ends on a
			// line boundary.
			path := filepath.Join(dir, "crawl.jsonl")
			writeMemberJournal(t, path, visits, 7, 0)
			editFrameIndex(t, path, func(fi *durable.FrameIndex) {
				for i := range fi.Entries[:len(fi.Entries)-1] {
					fi.Entries[i].Offset--
				}
			})
			return path
		}, "rejected"},
		{"plain-crc-bad-middle", func(t *testing.T, dir string) string {
			path := filepath.Join(dir, "crawl.jsonl")
			writeMemberJournal(t, path, visits, 7, 0)
			corruptMiddleRecord(t, path)
			return path
		}, "rejected"},
		{"gzip-crc-bad-middle", func(t *testing.T, dir string) string {
			plain := filepath.Join(dir, "crawl.jsonl")
			writeMemberJournal(t, plain, visits, 7, 0)
			corruptMiddleRecord(t, plain)
			path := plain + ".gz"
			regzip(t, plain, path)
			return path
		}, "rejected"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := tc.build(t, t.TempDir())
			want, wantErr := sequentialLoad(path)
			for workers := 1; workers <= 4; workers++ {
				got, err := loadFile(path, workers)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("workers=%d: error %v, sequential %v", workers, err, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d: dataset diverges from the sequential read", workers)
				}
				if workers == 1 {
					continue
				}
				ranges := MemberRanges(path, 0, -1, workers)
				split := "none"
				if len(ranges) > 1 {
					split = "rejected"
					if _, ok := loadRanges(path, ranges); ok {
						split = "verified"
					}
				}
				if split != tc.split {
					t.Fatalf("workers=%d: split of %d ranges %s, want %s", workers, len(ranges), split, tc.split)
				}
				if split == "verified" && len(ranges) != workers+1 {
					t.Fatalf("workers=%d: %d ranges, want %d committed plus the tail", workers, len(ranges), workers)
				}
			}
			if tc.split == "verified" && wantErr != nil {
				t.Fatalf("a verified split of a journal the sequential read rejects: %v", wantErr)
			}
		})
	}
}

// sequentialLoad is the reference: one reader over the whole file.
func sequentialLoad(path string) (*Dataset, error) {
	f, err := OpenReader(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// TestMemberRangesBalanceAndLimit pins the split itself: committed
// ranges tile the prefix boundary to boundary, at most one per worker
// and balanced by record count; a limit cuts them at the last boundary
// within it and caps the final range; an offset that is no boundary
// falls back to one range.
func TestMemberRangesBalanceAndLimit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crawl.jsonl.gz")
	writeMemberJournal(t, path, memberVisits(150), 7, 0)
	fi := durable.LoadFrameIndex(path)
	total := fi.Entries[len(fi.Entries)-1].Records
	for workers := 2; workers <= 4; workers++ {
		ranges := MemberRanges(path, 0, -1, workers)
		var next, records int64
		for _, r := range ranges[:len(ranges)-1] {
			if r.Start != next || !r.Committed() {
				t.Fatalf("workers=%d: ranges %+v do not tile the committed prefix", workers, ranges)
			}
			if r.Records > total/int64(workers)+7 {
				t.Fatalf("workers=%d: range %+v unbalanced for %d records", workers, r, total)
			}
			next, records = r.End, records+r.Records
		}
		if tail := ranges[len(ranges)-1]; records != total || tail.Start != next || tail.Committed() || tail.Records != -1 {
			t.Fatalf("workers=%d: ranges %+v do not end in the tail after %d records", workers, ranges, total)
		}
	}

	limit := fi.Entries[5].Records + 3
	ranges := MemberRanges(path, 0, limit, 3)
	last := ranges[len(ranges)-1]
	if ranges[len(ranges)-2].End != fi.Entries[5].Offset || last.Start != fi.Entries[5].Offset || last.Records != 3 {
		t.Fatalf("limit %d: ranges %+v, want the committed ones to stop at entry 5 and the tail to take 3", limit, ranges)
	}
	from := fi.Entries[3]
	for _, r := range MemberRanges(path, from.Offset, -1, 2)[:2] {
		if r.Start < from.Offset {
			t.Fatalf("ranges from offset %d start at %d", from.Offset, r.Start)
		}
	}
	if got := MemberRanges(path, from.Offset+1, -1, 4); len(got) != 1 || got[0].Start != from.Offset+1 {
		t.Fatalf("an offset off every boundary split into %+v", got)
	}
}
