package durable

import (
	"os"
	"path/filepath"
	"testing"
)

func TestFrameIndexAppendMonotonic(t *testing.T) {
	fi := &FrameIndex{}
	fi.Append(FrameEntry{Offset: 0, Records: 1, Rank: 1})   // offset must advance past 0
	fi.Append(FrameEntry{Offset: -5, Records: 1, Rank: 1})  // negative offset
	fi.Append(FrameEntry{Offset: 10, Records: -1, Rank: 1}) // negative records
	fi.Append(FrameEntry{Offset: 10, Records: 1, Rank: -1}) // negative rank
	if len(fi.Entries) != 0 {
		t.Fatalf("invalid entries admitted: %+v", fi.Entries)
	}

	fi.Append(FrameEntry{Offset: 100, Records: 5, Rank: 3})
	fi.Append(FrameEntry{Offset: 100, Records: 9, Rank: 4}) // offset stalls: dropped
	fi.Append(FrameEntry{Offset: 90, Records: 9, Rank: 4})  // offset regresses: dropped
	fi.Append(FrameEntry{Offset: 200, Records: 4, Rank: 4}) // records regress: dropped
	fi.Append(FrameEntry{Offset: 200, Records: 9, Rank: 2}) // rank regresses: dropped
	fi.Append(FrameEntry{Offset: 200, Records: 9, Rank: 3}) // rank may stall
	if len(fi.Entries) != 2 {
		t.Fatalf("want 2 entries, got %+v", fi.Entries)
	}
	if fi.Entries[1] != (FrameEntry{Offset: 200, Records: 9, Rank: 3}) {
		t.Fatalf("unexpected tail entry %+v", fi.Entries[1])
	}
}

func TestFrameIndexTruncate(t *testing.T) {
	fi := &FrameIndex{}
	for i := int64(1); i <= 5; i++ {
		fi.Append(FrameEntry{Offset: 100 * i, Records: 10 * i, Rank: int(i)})
	}
	fi.Truncate(350)
	if len(fi.Entries) != 3 || fi.Entries[2].Offset != 300 {
		t.Fatalf("truncate(350) kept %+v", fi.Entries)
	}
	fi.Truncate(300) // boundary entry survives an exact truncate
	if len(fi.Entries) != 3 {
		t.Fatalf("truncate(300) kept %+v", fi.Entries)
	}
	fi.Truncate(0)
	if len(fi.Entries) != 0 {
		t.Fatalf("truncate(0) kept %+v", fi.Entries)
	}
}

func TestFrameIndexSeek(t *testing.T) {
	fi := &FrameIndex{}
	fi.Append(FrameEntry{Offset: 100, Records: 10, Rank: 4})
	fi.Append(FrameEntry{Offset: 250, Records: 25, Rank: 9})
	fi.Append(FrameEntry{Offset: 400, Records: 40, Rank: 17})

	// SeekRecords: the latest boundary committing ≤ n records.
	for _, tc := range []struct {
		records int64
		want    int64 // offset; 0 = start of file
	}{
		{0, 0}, {9, 0}, {10, 100}, {24, 100}, {25, 250}, {39, 250}, {40, 400}, {1 << 40, 400},
	} {
		if got := fi.SeekRecords(tc.records); got.Offset != tc.want {
			t.Errorf("SeekRecords(%d) = %+v, want offset %d", tc.records, got, tc.want)
		}
	}

	// SeekRank: the latest boundary whose watermark is strictly below the
	// wanted rank — every record past it has rank > watermark ≥ nothing
	// the reader needs.
	for _, tc := range []struct {
		rank int
		want int64
	}{
		{0, 0}, {4, 0}, {5, 100}, {9, 100}, {10, 250}, {17, 250}, {18, 400}, {1 << 20, 400},
	} {
		if got := fi.SeekRank(tc.rank); got.Offset != tc.want {
			t.Errorf("SeekRank(%d) = %+v, want offset %d", tc.rank, got, tc.want)
		}
	}
}

// TestFrameIndexLoadSalvage pins the accelerator-never-authority
// contract: LoadFrameIndex returns nil — and readers fall back to a full
// scan — on every conceivable defect of the sidecar file.
func TestFrameIndexLoadSalvage(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "crawl.jsonl.gz")
	if err := os.WriteFile(journal, make([]byte, 500), 0o644); err != nil {
		t.Fatal(err)
	}
	store := func(t *testing.T, fi *FrameIndex) {
		t.Helper()
		if err := fi.Store(journal); err != nil {
			t.Fatal(err)
		}
	}

	fi := &FrameIndex{}
	fi.Append(FrameEntry{Offset: 200, Records: 20, Rank: 5})
	fi.Append(FrameEntry{Offset: 450, Records: 45, Rank: 11})
	store(t, fi)
	got := LoadFrameIndex(journal)
	if got == nil || len(got.Entries) != 2 || got.Entries[1] != fi.Entries[1] {
		t.Fatalf("round trip lost entries: %+v", got)
	}

	t.Run("missing", func(t *testing.T) {
		if LoadFrameIndex(filepath.Join(dir, "other.jsonl.gz")) != nil {
			t.Fatal("loaded an index that does not exist")
		}
	})
	t.Run("wrong-journal-name", func(t *testing.T) {
		renamed := filepath.Join(dir, "moved.jsonl.gz")
		if err := os.WriteFile(renamed, make([]byte, 500), 0o644); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(FrameIndexPath(journal))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(FrameIndexPath(renamed), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if LoadFrameIndex(renamed) != nil {
			t.Fatal("loaded an index naming a different journal")
		}
	})
	t.Run("offset-past-journal-size", func(t *testing.T) {
		// The journal shrank (e.g. a resume truncated a torn tail the
		// index still describes): the whole index is untrustworthy.
		if err := os.Truncate(journal, 300); err != nil {
			t.Fatal(err)
		}
		if LoadFrameIndex(journal) != nil {
			t.Fatal("loaded an index pointing past the journal size")
		}
		if err := os.Truncate(journal, 500); err != nil {
			t.Fatal(err)
		}
		if LoadFrameIndex(journal) == nil {
			t.Fatal("index did not recover once the journal grew back")
		}
	})
	t.Run("corrupt", func(t *testing.T) {
		if err := os.WriteFile(FrameIndexPath(journal), []byte(`{"version":1,`), 0o644); err != nil {
			t.Fatal(err)
		}
		if LoadFrameIndex(journal) != nil {
			t.Fatal("loaded a torn index")
		}
	})
	t.Run("version-skew", func(t *testing.T) {
		store(t, fi)
		data, err := os.ReadFile(FrameIndexPath(journal))
		if err != nil {
			t.Fatal(err)
		}
		data = []byte("{\"version\":99," + string(data[len(`{"version":1,`):]))
		if err := os.WriteFile(FrameIndexPath(journal), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if LoadFrameIndex(journal) != nil {
			t.Fatal("loaded an index from the future")
		}
	})
	t.Run("non-monotonic", func(t *testing.T) {
		bad := `{"version":1,"journal":"crawl.jsonl.gz","entries":[` +
			`{"offset":200,"records":20,"rank":5},{"offset":150,"records":25,"rank":6}]}`
		if err := os.WriteFile(FrameIndexPath(journal), []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if LoadFrameIndex(journal) != nil {
			t.Fatal("loaded a non-monotonic index")
		}
	})
	t.Run("remove", func(t *testing.T) {
		store(t, fi)
		RemoveFrameIndexFS(nil, journal)
		if LoadFrameIndex(journal) != nil {
			t.Fatal("index survived RemoveFrameIndexFS")
		}
	})
}
