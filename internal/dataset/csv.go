package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"
)

// callsCSVHeader is the column layout of the flattened calls export,
// one row per Topics API call — the shape the paper's published dataset
// uses (site, CP, call type, timestamp).
var callsCSVHeader = []string{
	"site", "rank", "phase", "caller", "type",
	"context_origin", "timestamp", "gate_allowed", "gate_reason", "topics_returned",
}

// WriteCallsCSV exports every Topics API call of the dataset as CSV.
func (d *Dataset) WriteCallsCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(callsCSVHeader); err != nil {
		return fmt.Errorf("dataset: writing csv header: %w", err)
	}
	for i := range d.Visits {
		v := &d.Visits[i]
		for _, c := range v.Calls {
			rec := []string{
				v.Site,
				strconv.Itoa(v.Rank),
				string(v.Phase),
				c.Caller,
				string(c.Type),
				c.ContextOrigin,
				c.Timestamp.UTC().Format(time.RFC3339),
				strconv.FormatBool(c.GateAllowed),
				c.GateReason,
				strconv.Itoa(c.TopicsReturned),
			}
			if err := cw.Write(rec); err != nil {
				return fmt.Errorf("dataset: writing csv row: %w", err)
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("dataset: flushing csv: %w", err)
	}
	return nil
}
