package durable

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteFileAtomicReplacesAndPreservesOnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "v1")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "v1" {
		t.Fatalf("content = %q, want v1", got)
	}

	boom := fmt.Errorf("boom")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "half-written v2")
		return boom
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "v1" {
		t.Fatalf("failed write clobbered target: %q", got)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		[]byte(`{"site":"a.com"}`),
		[]byte(`{"site":"b.com","rank":2}`),
		{}, // empty payload is legal
		[]byte(`{"site":"c.com"}`),
	}
	var buf []byte
	for _, p := range payloads {
		buf = AppendFrame(buf, p)
	}
	var got [][]byte
	st, err := ScanRecords(bytes.NewReader(buf), func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Truncated {
		t.Fatalf("clean stream reported truncated: %+v", st)
	}
	if st.Records != int64(len(payloads)) {
		t.Fatalf("records = %d, want %d", st.Records, len(payloads))
	}
	if st.Bytes != int64(len(buf)) {
		t.Fatalf("bytes = %d, want %d", st.Bytes, len(buf))
	}
	for i, p := range payloads {
		if !bytes.Equal(got[i], p) {
			t.Fatalf("record %d = %q, want %q", i, got[i], p)
		}
	}
	var crc uint32
	for _, p := range payloads {
		crc = PayloadCRC(crc, p)
	}
	if st.PayloadCRC != crc {
		t.Fatalf("crc = %x, want %x", st.PayloadCRC, crc)
	}
}

func TestScanRecordsLegacyUnframedLines(t *testing.T) {
	in := `{"site":"a.com"}` + "\n" + `{"site":"b.com"}` + "\n"
	var got []string
	st, err := ScanRecords(strings.NewReader(in), func(p []byte) error {
		got = append(got, string(p))
		return nil
	})
	if err != nil || st.Truncated || st.Records != 2 {
		t.Fatalf("st=%+v err=%v got=%v", st, err, got)
	}
	if got[0] != `{"site":"a.com"}` || got[1] != `{"site":"b.com"}` {
		t.Fatalf("got %v", got)
	}
}

func TestScanRecordsSalvagesTornTails(t *testing.T) {
	valid := AppendFrame(nil, []byte(`{"site":"a.com"}`))
	valid = AppendFrame(valid, []byte(`{"site":"b.com"}`))
	nValid := int64(2)

	cases := []struct {
		name   string
		tail   string
		reason string
	}{
		{"torn-line", `{"site":"c`, "torn-line"},
		{"torn-header", "#r 12\n", "torn-header"},
		{"torn-header-garbage", "#r zz yy\n", "torn-header"},
		{"torn-payload", "#r 100 deadbeef\n{\"site\":", "torn-payload"},
		{"crc-mismatch", "#r 16 0\n" + `{"site":"x.com"}` + "\n", "crc-mismatch"},
		{"oversized-len", "#r 999999999999 0\n", "torn-header"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := append(append([]byte(nil), valid...), tc.tail...)
			var got int64
			st, err := ScanRecords(bytes.NewReader(in), func(p []byte) error {
				got++
				return nil
			})
			if err != nil {
				t.Fatalf("salvaging scan errored: %v", err)
			}
			if got != nValid || st.Records != nValid {
				t.Fatalf("salvaged %d records, want %d (st=%+v)", got, nValid, st)
			}
			if !st.Truncated || st.Reason != tc.reason {
				t.Fatalf("st=%+v, want truncated with reason %q", st, tc.reason)
			}
			if st.Bytes != int64(len(valid)) {
				t.Fatalf("valid prefix = %d bytes, want %d", st.Bytes, len(valid))
			}
			if st.TruncatedBytes != int64(len(tc.tail)) {
				t.Fatalf("truncated bytes = %d, want %d", st.TruncatedBytes, len(tc.tail))
			}
		})
	}
}

// TestScanFramesMatchesScanRecords pins the in-memory scanner to the
// streaming one: on every prefix of a mixed framed/legacy stream (every
// torn tail), and on every single-byte corruption of it, both deliver
// the same payloads and report the same stats.
func TestScanFramesMatchesScanRecords(t *testing.T) {
	stream := AppendFrame(nil, []byte(`{"site":"a.com"}`))
	stream = append(stream, "\n"+`{"site":"legacy.com"}`+"\n"...)
	stream = AppendFrame(stream, []byte(`{"site":"b.com","n":[1,2,3]}`))
	stream = AppendFrame(stream, nil)
	stream = AppendFrame(stream, []byte(`{"site":"c.com"}`))

	scan := func(data []byte, frames bool) ([]string, ScanStats) {
		var got []string
		fn := func(p []byte) error {
			got = append(got, string(p))
			return nil
		}
		var st ScanStats
		var err error
		if frames {
			st, err = ScanFrames(data, fn)
		} else {
			st, err = ScanRecords(bytes.NewReader(data), fn)
		}
		if err != nil {
			t.Fatalf("salvaging scan errored: %v", err)
		}
		return got, st
	}
	check := func(label string, data []byte) {
		t.Helper()
		wantP, wantSt := scan(data, false)
		gotP, gotSt := scan(data, true)
		if gotSt != wantSt {
			t.Fatalf("%s: ScanFrames stats %+v, ScanRecords %+v", label, gotSt, wantSt)
		}
		if strings.Join(gotP, "\x00") != strings.Join(wantP, "\x00") {
			t.Fatalf("%s: ScanFrames payloads %q, ScanRecords %q", label, gotP, wantP)
		}
	}
	for n := 0; n <= len(stream); n++ {
		check(fmt.Sprintf("prefix %d", n), stream[:n])
	}
	for i := range stream {
		flipped := append([]byte(nil), stream...)
		flipped[i] ^= 0x20
		check(fmt.Sprintf("flip at %d", i), flipped)
	}

	boom := fmt.Errorf("stop")
	if _, err := ScanFrames(stream, func([]byte) error { return boom }); err != boom {
		t.Fatalf("err = %v, want callback error", err)
	}
}

func TestAppendFileFSAppendsAndNeverCreates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.idx")
	if err := AppendFileFS(nil, path, []byte("x")); err == nil {
		t.Fatal("append created a missing file")
	}
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(AppendFrame(nil, []byte("a")))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := AppendFileFS(nil, path, AppendFrame(nil, []byte("b"))); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	st, _ := ScanFrames(data, func(p []byte) error {
		got = append(got, string(p))
		return nil
	})
	if st.Truncated || strings.Join(got, ",") != "a,b" {
		t.Fatalf("appended log scans as %q (st=%+v)", got, st)
	}
}

func TestScanRecordsPropagatesCallbackError(t *testing.T) {
	in := AppendFrame(nil, []byte(`{"a":1}`))
	boom := fmt.Errorf("stop")
	_, err := ScanRecords(bytes.NewReader(in), func([]byte) error { return boom })
	if err != boom {
		t.Fatalf("err = %v, want callback error", err)
	}
}

// TestScanRecordsAllocsPerRecord pins ScanRecords' buffer reuse: the
// payload and line buffers are allocated per scan and regrown only for
// a longer record, never per record, so a fold over a whole journal
// pays no allocation per record in the framing layer.
func TestScanRecordsAllocsPerRecord(t *testing.T) {
	const records = 400
	var stream []byte
	for i := range records {
		// Record sizes around a typical visit record, growing now and then.
		stream = AppendFrame(stream, bytes.Repeat([]byte{'x'}, 2000+i%7*100))
		if i%50 == 0 {
			stream = append(stream, `{"legacy":"unframed line"}`+"\n"...)
		}
	}
	var got int64
	allocs := testing.AllocsPerRun(10, func() {
		st, err := ScanRecords(bytes.NewReader(stream), func([]byte) error { return nil })
		if err != nil || st.Truncated {
			t.Fatalf("scan: %v %+v", err, st)
		}
		got = st.Records
	})
	if got != records+records/50 {
		t.Fatalf("scanned %d records, want %d", got, records+records/50)
	}
	if perRecord := allocs / records; perRecord > 0.05 {
		t.Fatalf("ScanRecords made %.0f allocations for %d records (%.3f per record), want a per-scan constant", allocs, records, perRecord)
	}
}

func journalRecords(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf(`{"site":"s%03d.com","rank":%d,"pad":"xxxxxxxxxxxxxxxxxxxxxxxx"}`, i, i+1))
	}
	return out
}

// scanTail reads a journal from a checkpoint offset and salvages the
// tail records.
func scanTail(t *testing.T, path string, off int64) ([][]byte, ScanStats, int64) {
	t.Helper()
	rc, cr, err := OpenTail(path, off)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	var got [][]byte
	st, err := ScanRecords(rc, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, st, cr.BytesRead()
}

func TestJournalCheckpointAndTailResume(t *testing.T) {
	for _, name := range []string{"j.jsonl", "j.jsonl.gz"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), name)
			recs := journalRecords(6)
			j, err := Create(path, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range recs[:4] {
				if err := j.Append(p); err != nil {
					t.Fatal(err)
				}
			}
			ck, err := j.Sync()
			if err != nil {
				t.Fatal(err)
			}
			if ck.Records != 4 {
				t.Fatalf("checkpoint records = %d, want 4", ck.Records)
			}
			// Repeated Sync with nothing new must not grow the file.
			size1 := fileSize(t, path)
			for i := 0; i < 3; i++ {
				if _, err := j.Sync(); err != nil {
					t.Fatal(err)
				}
			}
			if s := fileSize(t, path); s != size1 {
				t.Fatalf("idle Sync grew file %d -> %d", size1, s)
			}
			for _, p := range recs[4:] {
				if err := j.Append(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}

			// Tail resume from the mid-file checkpoint sees exactly the
			// last two records, reading only the tail bytes.
			tail, st, bytesRead := scanTail(t, path, ck.Offset)
			if st.Truncated {
				t.Fatalf("clean journal tail reported truncated: %+v", st)
			}
			if len(tail) != 2 || !bytes.Equal(tail[0], recs[4]) || !bytes.Equal(tail[1], recs[5]) {
				t.Fatalf("tail = %d records (%q), want records 5-6", len(tail), tail)
			}
			total := fileSize(t, path)
			if want := total - ck.Offset; bytesRead != want {
				t.Fatalf("tail read %d raw bytes, want %d (O(tail), file is %d)", bytesRead, want, total)
			}

			// Full scan from offset 0 sees all six.
			all, st, _ := scanTail(t, path, 0)
			if st.Truncated || len(all) != 6 {
				t.Fatalf("full scan: %d records, st=%+v", len(all), st)
			}
		})
	}
}

func TestJournalCrashTornTailSalvage(t *testing.T) {
	for _, name := range []string{"j.jsonl", "j.jsonl.gz"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, name)
			recs := journalRecords(4)
			j, err := Create(path, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range recs[:2] {
				if err := j.Append(p); err != nil {
					t.Fatal(err)
				}
			}
			ck, err := j.Sync()
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range recs[2:] {
				if err := j.Append(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			whole, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			// Kill the file at every byte between the checkpoint and the
			// end: salvage from the checkpoint must always yield a
			// prefix of the uncommitted records, never an error.
			for cut := ck.Offset; cut <= int64(len(whole)); cut++ {
				torn := filepath.Join(dir, fmt.Sprintf("torn-%d-%s", cut, name))
				if err := os.WriteFile(torn, whole[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				tail, st, _ := scanTail(t, torn, ck.Offset)
				if len(tail) > 2 {
					t.Fatalf("cut %d: salvaged %d tail records from 2 written", cut, len(tail))
				}
				for i, p := range tail {
					if !bytes.Equal(p, recs[2+i]) {
						t.Fatalf("cut %d: tail[%d] = %q, want %q", cut, i, p, recs[2+i])
					}
				}
				if cut == int64(len(whole)) && (st.Truncated || len(tail) != 2) {
					t.Fatalf("uncut file: tail=%d st=%+v", len(tail), st)
				}
				os.Remove(torn)
			}
		})
	}
}

func TestOpenAtTruncatesUncommittedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl.gz")
	recs := journalRecords(4)
	j, err := Create(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range recs[:2] {
		if err := j.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	ck, err := j.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(recs[2]); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen at the checkpoint: the third record is discarded, and a
	// different record appended in its place.
	j2, err := OpenAt(path, ck, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if j2.Records() != 2 {
		t.Fatalf("resumed records = %d, want 2", j2.Records())
	}
	if err := j2.Append(recs[3]); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	all, st, _ := scanTail(t, path, 0)
	if st.Truncated || len(all) != 3 {
		t.Fatalf("after OpenAt: %d records, st=%+v", len(all), st)
	}
	if !bytes.Equal(all[2], recs[3]) {
		t.Fatalf("record 3 = %q, want %q", all[2], recs[3])
	}
}

func TestJournalCrashHooks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	boom := fmt.Errorf("crash")
	j, err := Create(path, Options{
		BeforeAppend: func(i int64) error {
			if i >= 2 {
				return boom
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := journalRecords(3)
	for i, p := range recs {
		err := j.Append(p)
		if i < 2 && err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if i == 2 && err != boom {
			t.Fatalf("append 2: err=%v, want injected crash", err)
		}
	}
	if _, err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	all, _, _ := scanTail(t, path, 0)
	if len(all) != 2 {
		t.Fatalf("journal holds %d records, want 2", len(all))
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "crawl.jsonl.gz")
	// The manifest refuses to describe a journal shorter than its
	// offset, so give it a real file.
	if err := os.WriteFile(path, bytes.Repeat([]byte("x"), 200), 0o644); err != nil {
		t.Fatal(err)
	}
	m := &Manifest{
		Offset:        128,
		Records:       7,
		PayloadCRC:    0xdeadbeef,
		WatermarkRank: 4,
		WatermarkSite: "d.example",
		Sites:         4,
	}
	if err := m.Store(path); err != nil {
		t.Fatal(err)
	}
	got := LoadManifest(path)
	if got == nil {
		t.Fatal("stored manifest did not load")
	}
	if got.Offset != 128 || got.Records != 7 || got.PayloadCRC != 0xdeadbeef ||
		got.WatermarkRank != 4 || got.WatermarkSite != "d.example" || got.Sites != 4 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.Checkpoint() != (Checkpoint{Offset: 128, Records: 7, PayloadCRC: 0xdeadbeef}) {
		t.Fatalf("checkpoint = %+v", got.Checkpoint())
	}
}

func TestLoadManifestToleratesAbsenceAndCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "crawl.jsonl")
	if m := LoadManifest(path); m != nil {
		t.Fatalf("absent manifest loaded: %+v", m)
	}
	if err := os.WriteFile(ManifestPath(path), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if m := LoadManifest(path); m != nil {
		t.Fatalf("corrupt manifest loaded: %+v", m)
	}
	// A manifest pointing past the journal's end is stale: absent.
	if err := os.WriteFile(path, []byte("short"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := &Manifest{Offset: 1 << 20, Records: 9}
	if err := m.Store(path); err != nil {
		t.Fatal(err)
	}
	if got := LoadManifest(path); got != nil {
		t.Fatalf("oversized-offset manifest loaded: %+v", got)
	}
	RemoveManifest(path)
	if _, err := os.Stat(ManifestPath(path)); !os.IsNotExist(err) {
		t.Fatalf("manifest not removed: %v", err)
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

func TestManifestShardRoundTripAndValidation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "crawl.jsonl")
	if err := os.WriteFile(path, bytes.Repeat([]byte("x"), 200), 0o644); err != nil {
		t.Fatal(err)
	}
	shard := &ShardInfo{Index: 2, Count: 4, FromRank: 51, ToRank: 75}
	m := &Manifest{Offset: 100, Records: 3, Shard: shard}
	if err := m.Store(path); err != nil {
		t.Fatal(err)
	}
	got := LoadManifest(path)
	if got == nil || !got.Shard.Equal(shard) {
		t.Fatalf("shard did not round trip: %+v", got)
	}
	if !(*ShardInfo)(nil).Equal(nil) {
		t.Fatal("nil shards should be equal")
	}
	if shard.Equal(nil) || shard.Equal(&ShardInfo{Index: 1, Count: 4, FromRank: 51, ToRank: 75}) {
		t.Fatal("distinct shards reported equal")
	}

	for _, bad := range []*ShardInfo{
		{Index: 4, Count: 4, FromRank: 1, ToRank: 2},
		{Index: -1, Count: 4, FromRank: 1, ToRank: 2},
		{Index: 0, Count: 0, FromRank: 1, ToRank: 2},
		{Index: 0, Count: 1, FromRank: 0, ToRank: 2},
		{Index: 0, Count: 1, FromRank: 5, ToRank: 4},
	} {
		data, err := json.Marshal(&Manifest{Version: ManifestVersion, Journal: "j", Offset: 100, Records: 3, Shard: bad})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeManifest(data); err == nil {
			t.Errorf("invalid shard %+v decoded", bad)
		}
	}
}

func TestCanonicalBytes(t *testing.T) {
	for _, name := range []string{"j.jsonl", "j.jsonl.gz"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), name)
			j, err := Create(path, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var want []byte
			for i, rec := range []string{`{"a":1}`, `{"b":2}`, `{"c":3}`} {
				if err := j.Append([]byte(rec)); err != nil {
					t.Fatal(err)
				}
				want = AppendFrame(want, []byte(rec))
				// Checkpoint between records so the .gz journal holds
				// several gzip members.
				if i < 2 {
					if _, err := j.Sync(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := CanonicalBytes(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("canonical bytes differ:\n got %q\nwant %q", got, want)
			}
		})
	}
}
