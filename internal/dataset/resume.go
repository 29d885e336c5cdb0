package dataset

import (
	"errors"
	"os"

	"github.com/netmeasure/topicscope/internal/durable"
	"github.com/netmeasure/topicscope/internal/obs"
)

// CompletedSites streams a JSONL crawl file and returns the set of sites
// that already have a Before-Accept record — the resume point for an
// interrupted campaign. A missing file yields an empty set.
//
// The scan salvages: a crawl file whose tail was torn by a crash (a
// half-written line, a truncated gzip member, a corrupt framed record)
// yields the sites of the valid prefix instead of an error — a corrupt
// tail must never block resume, because resume is exactly when corrupt
// tails occur.
func CompletedSites(path string) (map[string]bool, error) {
	return CompletedSitesObserved(path, nil)
}

// CompletedSitesObserved is CompletedSites with recovery accounting: a
// torn tail increments dataset_torn_tails_total and
// dataset_truncated_bytes_total on reg (which may be nil).
func CompletedSitesObserved(path string, reg *obs.Registry) (map[string]bool, error) {
	out := make(map[string]bool)
	if _, err := os.Stat(path); os.IsNotExist(err) {
		return out, nil
	}
	rc, _, err := durable.OpenTail(path, 0)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	corrupt := false
	st, err := durable.ScanRecords(rc, func(payload []byte) error {
		var v Visit
		if uerr := DecodeVisit(payload, &v); uerr != nil {
			// First undecodable record: everything after it is the
			// corrupt tail. Stop, keep what we have.
			return errCorrupt
		}
		if v.Phase == BeforeAccept {
			out[v.Site] = true
		}
		return nil
	})
	if err != nil {
		if !errors.Is(err, errCorrupt) {
			return nil, err
		}
		corrupt = true
	}
	if st.Truncated || corrupt {
		reg.Add("dataset_torn_tails_total", 1)
		reg.Add("dataset_truncated_bytes_total", st.TruncatedBytes)
	}
	return out, nil
}
