package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"
)

// The calls CSV reader is the round-trip oracle for WriteCallsCSV; the
// analysis pipeline reads datasets, never the CSV export, so it lives
// beside the tests that use it.

// ReadCallsCSV parses a calls CSV (as produced by WriteCallsCSV) into
// flat call records annotated with their visit context.
func ReadCallsCSV(r io.Reader) ([]CallRow, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(callsCSVHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading csv header: %w", err)
	}
	for i, h := range callsCSVHeader {
		if header[i] != h {
			return nil, fmt.Errorf("dataset: csv header mismatch at %d: %q", i, header[i])
		}
	}
	var out []CallRow
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading csv row: %w", err)
		}
		rank, err := strconv.Atoi(rec[1])
		if err != nil {
			return nil, fmt.Errorf("dataset: bad rank %q: %w", rec[1], err)
		}
		ts, err := time.Parse(time.RFC3339, rec[6])
		if err != nil {
			return nil, fmt.Errorf("dataset: bad timestamp %q: %w", rec[6], err)
		}
		allowed, err := strconv.ParseBool(rec[7])
		if err != nil {
			return nil, fmt.Errorf("dataset: bad gate_allowed %q: %w", rec[7], err)
		}
		n, err := strconv.Atoi(rec[9])
		if err != nil {
			return nil, fmt.Errorf("dataset: bad topics_returned %q: %w", rec[9], err)
		}
		out = append(out, CallRow{
			Site: rec[0], Rank: rank, Phase: Phase(rec[2]),
			Call: TopicsCall{
				Caller: rec[3], Site: rec[0], Type: CallType(rec[4]),
				ContextOrigin: rec[5], Timestamp: ts,
				GateAllowed: allowed, GateReason: rec[8], TopicsReturned: n,
			},
		})
	}
}

// CallRow is one flattened Topics API call with visit context.
type CallRow struct {
	Site  string
	Rank  int
	Phase Phase
	Call  TopicsCall
}
