package dataset

import (
	"errors"
	"fmt"

	"github.com/netmeasure/topicscope/internal/durable"
)

// errStopRange stops a range scan early once the requested window has
// been delivered; it never escapes this package.
var errStopRange = errors.New("dataset: stop range scan")

// RangeStats reports how a range read located its window — the
// O(seek + window) guarantee, asserted by tests.
type RangeStats struct {
	// Indexed reports whether a sparse frame index supplied the seek
	// target; false means the read degraded to a scan from byte 0.
	Indexed bool
	// SeekOffset is the committed byte offset the read started at.
	SeekOffset int64
	// Skipped counts records scanned before the window opened (records
	// between the seek boundary and the window start).
	Skipped int64
	// Records counts the records delivered.
	Records int64
	// BytesRead is the raw (compressed) bytes read off disk.
	BytesRead int64
	// Truncated reports that the scan ended in a torn tail.
	Truncated bool
}

// ReadRecordRange streams the journal records with index in
// [from, to) — counting from 0 in append order — into fn. A negative
// `to` means "through the end of the valid stream". The sparse frame
// index seeks to the latest checkpoint boundary at or before `from`
// (committed boundaries are gzip member boundaries, so decompression
// starts there); a missing or unusable index degrades to a full scan
// from byte 0. Records are CRC-verified on the way through either way.
func ReadRecordRange(path string, from, to int64, fn func(*Visit) error) (*RangeStats, error) {
	if from < 0 {
		from = 0
	}
	st := &RangeStats{}
	var entry durable.FrameEntry
	if fi := durable.LoadFrameIndex(path); fi != nil {
		entry = fi.SeekRecords(from)
		st.Indexed = entry.Offset > 0
	}
	seen := entry.Records
	st.SeekOffset = entry.Offset
	return readRange(path, MemberRange{Start: entry.Offset, End: -1}, st, func(payload []byte) error {
		i := seen
		seen++
		if i < from {
			st.Skipped++
			return nil
		}
		if to >= 0 && i >= to {
			return errStopRange
		}
		return deliverVisit(payload, st, fn)
	})
}

func deliverVisit(payload []byte, st *RangeStats, fn func(*Visit) error) error {
	var v Visit
	if err := DecodeVisit(payload, &v); err != nil {
		return fmt.Errorf("dataset: decoding record: %w", err)
	}
	st.Records++
	return fn(&v)
}

func readRange(path string, r MemberRange, st *RangeStats, fn func([]byte) error) (*RangeStats, error) {
	rc, cr, err := durable.OpenRange(path, r.Start, r.End)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	scan, err := durable.ScanRecords(rc, fn)
	st.BytesRead = cr.BytesRead()
	if err != nil && !errors.Is(err, errStopRange) {
		return nil, err
	}
	st.Truncated = scan.Truncated
	return st, nil
}
