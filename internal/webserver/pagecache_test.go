package webserver

import (
	"sync"
	"testing"

	"github.com/netmeasure/topicscope/internal/webworld"
)

// TestPageCacheVariants: the cache must key on (site, consent, vantage)
// — the four variants of one site differ, repeats are byte-identical,
// and the cached output always matches a fresh render.
func TestPageCacheVariants(t *testing.T) {
	srv := New(testWorld, testClock)
	site := pickSite(t, func(s *webworld.Site) bool {
		return s.HasBanner && len(s.Platforms) > 0 && s.RedirectTo == ""
	})

	seen := map[string]bool{}
	for _, consented := range []bool{false, true} {
		for _, eu := range []bool{false, true} {
			first := string(srv.cachedSitePage(site, site.Domain, consented, eu))
			again := string(srv.cachedSitePage(site, site.Domain, consented, eu))
			if first != again {
				t.Errorf("consented=%v eu=%v: cached page differs between calls", consented, eu)
			}
			if fresh := string(srv.renderSitePage(site, site.Domain, consented, eu)); first != fresh {
				t.Errorf("consented=%v eu=%v: cached page differs from fresh render", consented, eu)
			}
			seen[first] = true
		}
	}
	// A gated EU banner site renders differently pre/post consent, so
	// the cache must hold distinct entries, not one page for all keys.
	if len(seen) < 2 {
		t.Errorf("only %d distinct page variants cached, want at least 2", len(seen))
	}

	other := pickSite(t, func(s *webworld.Site) bool {
		return s.Domain != site.Domain && s.RedirectTo == ""
	})
	if string(srv.cachedSitePage(other, other.Domain, true, true)) == string(srv.cachedSitePage(site, site.Domain, true, true)) {
		t.Error("two different sites share one cached page")
	}
}

// TestPageCacheConcurrent hits one server from many goroutines under
// the race detector: the RWMutex-guarded map must hand every goroutine
// the same page.
func TestPageCacheConcurrent(t *testing.T) {
	srv := New(testWorld, testClock)
	site := pickSite(t, func(s *webworld.Site) bool { return s.RedirectTo == "" })
	want := string(srv.renderSitePage(site, site.Domain, false, true))

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got := srv.cachedSitePage(site, site.Domain, false, true); string(got) != want {
					t.Error("concurrent cached page diverges from fresh render")
					return
				}
			}
		}()
	}
	wg.Wait()
}
