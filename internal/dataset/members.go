package dataset

import (
	"errors"
	"io"
	"sync"

	"github.com/netmeasure/topicscope/internal/durable"
)

// MemberRange is one piece of a journal split at its .fidx checkpoint
// boundaries, each of which is a gzip member boundary: a reader opened
// at Start decodes the range's own members and nothing before them, so
// ranges read in parallel without copying a byte between them.
//
// A committed range ends at a .fidx boundary (End >= 0) and must hold
// exactly Records records, ending cleanly at End; the .fidx is an
// accelerator, never an authority, so a range that disagrees voids the
// split and its reader falls back to one sequential scan. The final
// range (End < 0) runs through EOF — the uncommitted tail, read with
// the sequential reader's own rules — and holds at most Records
// records, or all of them when Records is negative.
type MemberRange struct {
	Start, End int64
	Records    int64
}

// Committed reports whether the range ends at a .fidx boundary.
func (r MemberRange) Committed() bool { return r.End >= 0 }

// MemberRanges splits a journal's records, from the committed boundary
// at byte offset from on, into at most workers committed ranges balanced
// by the .fidx record counts, followed by the final range through EOF.
// With limit >= 0 only the first limit records are wanted: the committed
// ranges stop at the last boundary within them and the final range at
// limit. Without a usable .fidx, a boundary at from, a second worker or
// a second committed range, the split is the one final range — the
// sequential read.
func MemberRanges(path string, from, limit int64, workers int) []MemberRange {
	sequential := []MemberRange{{Start: from, End: -1, Records: limit}}
	fi := durable.LoadFrameIndex(path)
	if fi == nil || workers < 2 {
		return sequential
	}
	var base durable.FrameEntry // the boundary at from; the zero entry is byte 0
	var cuts []durable.FrameEntry
	for _, e := range fi.Entries {
		switch {
		case e.Offset < from:
		case e.Offset == from:
			base = e
		case limit < 0 || e.Records-base.Records <= limit:
			cuts = append(cuts, e)
		}
	}
	if base.Offset != from || len(cuts) < 2 {
		return sequential
	}
	total := cuts[len(cuts)-1].Records - base.Records
	var ranges []MemberRange
	prev := base
	for i, e := range cuts {
		k := int64(len(ranges) + 1)
		if i < len(cuts)-1 && (k == int64(workers) || (e.Records-base.Records)*int64(workers) < k*total) {
			continue
		}
		ranges = append(ranges, MemberRange{Start: prev.Offset, End: e.Offset, Records: e.Records - prev.Records})
		prev = e
	}
	if len(ranges) < 2 {
		return sequential
	}
	tail := MemberRange{Start: prev.Offset, End: -1, Records: limit}
	if limit >= 0 {
		tail.Records -= prev.Records - base.Records
	}
	return append(ranges, tail)
}

// errRangeMismatch marks a committed range whose bytes do not hold what
// the .fidx promised, which voids the split it belongs to.
var errRangeMismatch = errors.New("dataset: member range disagrees with its frame index")

// ScanMemberRange streams the record payloads of one member range into
// fn with ScanRecords' salvaging rules, counting them in Records. A
// committed range must hold exactly r.Records records and end cleanly at
// r.End, or it fails and its split is void; the final range stops after
// r.Records records when that is not negative.
func ScanMemberRange(path string, r MemberRange, fn func(payload []byte) error) (*RangeStats, error) {
	st := &RangeStats{SeekOffset: r.Start}
	_, err := readRange(path, r, st, func(payload []byte) error {
		switch {
		case r.Records < 0 || st.Records < r.Records:
		case r.Committed():
			return errRangeMismatch
		default:
			return errStopRange
		}
		st.Records++
		return fn(payload)
	})
	if err == nil && r.Committed() && (st.Truncated || st.Records != r.Records) {
		err = errRangeMismatch
	}
	return st, err
}

// loadRanges decodes a journal's member ranges in parallel, each
// straight into its own slots of one []Visit sized from the committed
// record count, and reports false — discarding everything — when any
// range fails or disagrees with the .fidx, so the caller's sequential
// Load decides the outcome and its error. The slots are never sized past
// the records the manifest commits, so a lying .fidx cannot inflate the
// allocation.
func loadRanges(path string, ranges []MemberRange) (*Dataset, bool) {
	last := len(ranges) - 1
	var committed int64
	for _, r := range ranges[:last] {
		committed += r.Records
	}
	if m := durable.LoadManifest(path); m == nil || committed > m.Records {
		return nil, false
	}
	visits := make([]Visit, committed)
	var tail []Visit
	errs := make([]error, len(ranges))
	var wg sync.WaitGroup
	var first int64
	for i, r := range ranges {
		if i == last {
			errs[i] = loadRange(path, r, &tail)
			break
		}
		slots := visits[first : first+r.Records : first+r.Records]
		first += r.Records
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = loadRange(path, r, &slots)
		}()
	}
	wg.Wait()
	if errors.Join(errs...) != nil {
		return nil, false
	}
	return &Dataset{Visits: append(visits, tail...)}, true
}

// loadRange decodes one range with the sequential reader's parser. A
// committed range fills exactly the slots it is given — its record count
// — and must end on a record boundary; the final range appends.
func loadRange(path string, r MemberRange, slots *[]Visit) error {
	rc, _, err := durable.OpenRange(path, r.Start, r.End)
	if err != nil {
		return err
	}
	defer rc.Close()
	lr := &lastByteReader{r: rc, last: '\n'}
	var n int64
	var spill Visit
	err = readRecords(lr, func() *Visit {
		switch {
		case !r.Committed():
			*slots = append(*slots, Visit{})
			return &(*slots)[len(*slots)-1]
		case n < int64(len(*slots)):
			return &(*slots)[n]
		}
		return &spill
	}, func(*Visit) error {
		n++
		if r.Committed() && n > r.Records {
			return errRangeMismatch
		}
		return nil
	})
	if err == nil && r.Committed() && (n != r.Records || lr.last != '\n') {
		err = errRangeMismatch
	}
	return err
}

// lastByteReader remembers the last byte read through it, so a range
// can prove it ended on a line boundary.
type lastByteReader struct {
	r    io.Reader
	last byte
}

func (l *lastByteReader) Read(p []byte) (int, error) {
	n, err := l.r.Read(p)
	if n > 0 {
		l.last = p[n-1]
	}
	return n, err
}
