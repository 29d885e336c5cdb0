package durable

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// FrameIndexVersion is the current sparse-frame-index schema version.
const FrameIndexVersion = 1

// FrameEntry marks one committed checkpoint boundary of a journal. A
// committed offset is always a gzip member boundary (Journal.Sync closes
// the member), so a reader can seek straight to Offset and start a fresh
// multistream gzip reader there without decompressing the prefix.
type FrameEntry struct {
	// Offset is the committed byte offset of the boundary.
	Offset int64 `json:"offset"`
	// Records counts the records committed at or before Offset.
	Records int64 `json:"records"`
	// Rank is the completed-site watermark at the boundary: every
	// record past Offset belongs to a site of rank > Rank.
	Rank int `json:"rank"`
}

// FrameIndex is the sparse rank/record → byte-offset index kept beside a
// journal (`<journal>.fidx`): one entry per checkpoint, ascending. Like
// the manifest it is an accelerator, never an authority — a missing,
// stale or corrupt index degrades readers to a full scan from byte 0,
// and every seek target it hands out is re-verified by the framed-record
// CRCs on the way through.
type FrameIndex struct {
	Version int `json:"version"`
	// Journal is the base name of the journal the index describes.
	Journal string `json:"journal"`
	// Entries holds the checkpoint boundaries in strictly ascending
	// Offset order, with non-decreasing Records and Rank.
	Entries []FrameEntry `json:"entries,omitempty"`
}

// FrameIndexPath derives the sparse-frame-index path for a journal.
func FrameIndexPath(journalPath string) string { return journalPath + ".fidx" }

// Append adds a checkpoint boundary, keeping the entry list strictly
// monotonic: a boundary that does not advance the committed offset
// (a checkpoint that flushed no new records) is dropped.
func (fi *FrameIndex) Append(e FrameEntry) {
	if e.Offset <= 0 || e.Records < 0 || e.Rank < 0 {
		return
	}
	if n := len(fi.Entries); n > 0 {
		last := fi.Entries[n-1]
		if e.Offset <= last.Offset || e.Records < last.Records || e.Rank < last.Rank {
			return
		}
	}
	fi.Entries = append(fi.Entries, e)
}

// Truncate drops every entry past the given committed offset — what a
// resume does after rewinding the journal to its manifest checkpoint.
func (fi *FrameIndex) Truncate(offset int64) {
	n := 0
	for _, e := range fi.Entries {
		if e.Offset > offset {
			break
		}
		n++
	}
	fi.Entries = fi.Entries[:n]
}

// SeekRecords returns the latest boundary at or before the given record
// count — the furthest point a reader interested in records ≥ n can
// seek to. The zero entry (offset 0) means "start of file".
func (fi *FrameIndex) SeekRecords(records int64) FrameEntry {
	var best FrameEntry
	for _, e := range fi.Entries {
		if e.Records > records {
			break
		}
		best = e
	}
	return best
}

// Store atomically writes the frame index for the given journal path.
func (fi *FrameIndex) Store(journalPath string) error {
	return fi.StoreFS(nil, journalPath)
}

// StoreFS is Store through an explicit filesystem seam.
func (fi *FrameIndex) StoreFS(fsys FS, journalPath string) error {
	fi.Version = FrameIndexVersion
	fi.Journal = filepath.Base(journalPath)
	return WriteFileAtomicFS(fsys, FrameIndexPath(journalPath), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		return enc.Encode(fi)
	})
}

// DecodeFrameIndex strictly decodes and validates frame-index bytes.
func DecodeFrameIndex(data []byte) (*FrameIndex, error) {
	var fi FrameIndex
	if err := json.Unmarshal(data, &fi); err != nil {
		return nil, fmt.Errorf("durable: frame index: %w", err)
	}
	if fi.Version != FrameIndexVersion {
		return nil, fmt.Errorf("durable: frame index: unsupported version %d", fi.Version)
	}
	var prev FrameEntry
	for i, e := range fi.Entries {
		if e.Offset <= prev.Offset || e.Records < prev.Records || e.Rank < prev.Rank {
			return nil, fmt.Errorf("durable: frame index: entry %d not monotonic", i)
		}
		if e.Records == 0 {
			return nil, fmt.Errorf("durable: frame index: entry %d commits no records", i)
		}
		prev = e
	}
	return &fi, nil
}

// LoadFrameIndex reads the frame index for a journal path. Like
// LoadManifest it returns nil on any problem — absent, unreadable,
// invalid, naming a different journal, or pointing past the journal's
// current size — and the caller falls back to scanning from byte 0.
func LoadFrameIndex(journalPath string) *FrameIndex {
	return LoadFrameIndexFS(nil, journalPath)
}

// LoadFrameIndexFS is LoadFrameIndex through an explicit filesystem seam.
func LoadFrameIndexFS(fsys FS, journalPath string) *FrameIndex {
	data, err := fsOrOS(fsys).ReadFile(FrameIndexPath(journalPath))
	if err != nil {
		return nil
	}
	fi, err := DecodeFrameIndex(data)
	if err != nil {
		return nil
	}
	if fi.Journal != filepath.Base(journalPath) {
		return nil
	}
	if n := len(fi.Entries); n > 0 {
		if st, err := os.Stat(journalPath); err != nil || st.Size() < fi.Entries[n-1].Offset {
			return nil
		}
	}
	return fi
}

// RemoveFrameIndexFS deletes a journal's frame index, if present,
// through an explicit filesystem seam (nil means the real OS).
func RemoveFrameIndexFS(fsys FS, journalPath string) {
	fsOrOS(fsys).Remove(FrameIndexPath(journalPath))
}
