package browser

import (
	"context"
	"net/url"
	"testing"

	"github.com/netmeasure/topicscope/internal/webworld"
)

// TestLandingPageFetchAllocs bounds the allocations of one landing-page
// fetch through the in-process client — request headers, transport,
// response writer and body read — once the server's page cache is warm.
// The ceiling is the measured count (19) plus a small margin; bringing
// back the net/http client plumbing — NewRequest's URL re-parse,
// Client.Do's header clone, httptest's recorder, 37 allocations in all —
// blows straight through it.
func TestLandingPageFetchAllocs(t *testing.T) {
	const ceiling = 21
	site := findSite(t, func(s *webworld.Site) bool { return s.RedirectTo == "" })
	b := newTestBrowser(t, nil, nil)
	b.SetConsent(site.Domain)
	u, err := url.Parse("http://" + site.Domain + "/")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	v := &PageVisit{visitedSite: site.Domain}
	if _, body, err := b.fetchOnce(ctx, v, u, "", nil, 0); err != nil || body == "" {
		t.Fatalf("warm-up fetch: %v (%d bytes)", err, len(body))
	}
	allocs := testing.AllocsPerRun(200, func() {
		b.fetchOnce(ctx, v, u, "", nil, 0) //nolint:errcheck // measured above
	})
	if allocs > ceiling {
		t.Errorf("landing-page fetch allocs/op = %g, ceiling %d", allocs, ceiling)
	}
}
