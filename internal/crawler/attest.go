package crawler

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"

	"github.com/netmeasure/topicscope/internal/attestation"
	"github.com/netmeasure/topicscope/internal/cmpdb"
	"github.com/netmeasure/topicscope/internal/dataset"
)

// cmpLookup resolves a hostname to a CMP display name.
func cmpLookup(host string) (string, bool) {
	c, ok := cmpdb.ByDomain(host)
	if !ok {
		return "", false
	}
	return c.Name, true
}

// CheckAttestations fetches and validates the attestation file of every
// domain, concurrently, returning records sorted by domain.
func (c *Crawler) CheckAttestations(ctx context.Context, domains []string) []dataset.AttestationRecord {
	cfg := c.cfg
	scheme := cfg.Scheme
	if scheme == "" {
		scheme = "http"
	}
	out := make([]dataset.AttestationRecord, len(domains))
	sem := make(chan struct{}, cfg.Workers)
	var wg sync.WaitGroup
	for i, d := range domains {
		wg.Add(1)
		go func(i int, domain string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[i] = checkOne(ctx, cfg.Client, scheme, domain)
		}(i, d)
	}
	wg.Wait()
	sort.Slice(out, func(i, j int) bool { return out[i].Domain < out[j].Domain })
	return out
}

func checkOne(ctx context.Context, client *http.Client, scheme, domain string) dataset.AttestationRecord {
	rec := dataset.AttestationRecord{Domain: domain}
	url := scheme + "://" + domain + attestation.WellKnownPath
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		rec.Error = err.Error()
		return rec
	}
	resp, err := client.Do(req)
	if err != nil {
		rec.Error = err.Error()
		return rec
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rec.Error = fmt.Sprintf("status %d", resp.StatusCode)
		return rec
	}
	rec.Present = true
	f, err := attestation.Parse(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		rec.Error = err.Error()
		return rec
	}
	if errs := f.Validate(); len(errs) > 0 {
		rec.Error = errs[0].Error()
		return rec
	}
	rec.Valid = true
	rec.AttestsTopics = f.AttestsTopics()
	rec.IssuedAt = f.IssuedAt
	rec.HasEnrollmentSite = f.HasEnrollmentSite()
	return rec
}

// CallerDomains extracts the distinct calling-party domains from a
// collected dataset: the set analysis.LiveIndex.Callers returns for the
// same records. Every report path takes its callers from its fold; this
// stays for the bench module's layer-by-layer campaign, which calls it.
func CallerDomains(d *dataset.Dataset) []string {
	seen := make(map[string]bool)
	for i := range d.Visits {
		for _, call := range d.Visits[i].Calls {
			seen[call.Caller] = true
		}
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}
