package browser

import (
	"context"
	"net/url"
	"testing"

	"github.com/netmeasure/topicscope/internal/webworld"
)

// fetchAllocs measures the allocations of one fetch attempt of rawURL
// through the in-process client — request headers, transport, handler,
// response writer and body string — after a warm-up fetch on the same
// page load has built its request and filled the server's page cache.
func fetchAllocs(t *testing.T, site *webworld.Site, rawURL string) float64 {
	t.Helper()
	b := newTestBrowser(t, nil, nil)
	b.SetConsent(site.Domain)
	u, err := url.Parse(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	v := &PageVisit{visitedSite: site.Domain}
	if _, body, err := b.fetchOnce(ctx, v, u, nil, "", 0); err != nil || body == "" {
		t.Fatalf("warm-up fetch of %s: %v (%d bytes)", rawURL, err, len(body))
	}
	allocs := testing.AllocsPerRun(200, func() {
		b.fetchOnce(ctx, v, u, nil, "", 0) //nolint:errcheck // checked by the warm-up
	})
	t.Logf("%s: %g allocs/op", rawURL, allocs)
	return allocs
}

// TestLandingPageFetchAllocs bounds the allocations of one landing-page
// fetch once the server's page cache is warm. The ceiling is the
// measured count (2: the transport's writer-and-response, and the body
// string; down from 12) plus a small margin. A request or header map
// built per fetch again, a per-response header map, or the net/http
// client plumbing — NewRequest's URL re-parse, Client.Do's header
// clone, httptest's recorder — blows straight through it.
func TestLandingPageFetchAllocs(t *testing.T) {
	const ceiling = 4
	site := findSite(t, func(s *webworld.Site) bool { return s.RedirectTo == "" })
	if allocs := fetchAllocs(t, site, "http://"+site.Domain+"/"); allocs > ceiling {
		t.Errorf("landing-page fetch allocs/op = %g, ceiling %d", allocs, ceiling)
	}
}

// TestSubresourceFetchAllocs is the same bound for a fixed asset, the
// most common fetch of a crawl: the pixel's body and its whole header
// map are shared package values, so beyond the reused request only the
// response and the body string are allocated. The ceiling is the
// measured count (2, down from 12) plus a small margin.
func TestSubresourceFetchAllocs(t *testing.T) {
	const ceiling = 4
	site := findSite(t, func(s *webworld.Site) bool { return s.RedirectTo == "" })
	if allocs := fetchAllocs(t, site, "http://"+site.Domain+"/static/2.png"); allocs > ceiling {
		t.Errorf("/static/2.png fetch allocs/op = %g, ceiling %d", allocs, ceiling)
	}
}
