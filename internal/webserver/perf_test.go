package webserver

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"github.com/netmeasure/topicscope/internal/webworld"
)

// discardWriter is a reusable ResponseWriter that keeps one header map
// alive across requests and counts the body bytes it is handed, so the
// alloc measurements below see only the server's own work.
type discardWriter struct {
	h      http.Header
	status int
	bytes  int
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) {
	w.bytes += len(p)
	return len(p), nil
}
func (w *discardWriter) WriteHeader(code int) { w.status = code }

// TestServeSitePageZeroAlloc is the tentpole's page-render target: with
// a warm page cache, answering a landing-page request allocates
// nothing — no cookie parsing, no header slice, no string copy of the
// cached page.
func TestServeSitePageZeroAlloc(t *testing.T) {
	srv := New(testWorld, testClock)
	site := pickSite(t, func(s *webworld.Site) bool { return s.RedirectTo == "" })

	req := &http.Request{
		Method: "GET",
		Host:   site.Domain,
		URL:    &url.URL{Path: "/"},
		Header: http.Header{"Cookie": []string{consentToken}},
	}
	w := &discardWriter{h: make(http.Header)}
	srv.ServeHTTP(w, req) // warm the page cache and header map
	if w.bytes == 0 {
		t.Fatal("warm-up request wrote no body")
	}

	allocs := testing.AllocsPerRun(200, func() {
		w.bytes = 0
		srv.ServeHTTP(w, req)
	})
	if allocs != 0 {
		t.Errorf("landing-page request allocs/op = %g, want 0", allocs)
	}
}

// TestHasConsentMatchesCookieParser pins the zero-alloc header scan to
// net/http's parser across the cookie shapes the emulated browser and
// real clients produce.
func TestHasConsentMatchesCookieParser(t *testing.T) {
	cases := []string{
		"",
		"consent=1",
		"consent=0",
		"consent=11",
		"a=b; consent=1",
		"consent=1; a=b",
		"a=b;  consent=1;c=d",
		"notconsent=1",
		"consent=",
		"a=consent=1",
	}
	for _, c := range cases {
		r := &http.Request{Header: http.Header{}}
		if c != "" {
			r.Header.Set("Cookie", c)
		}
		want := false
		if ck, err := r.Cookie(ConsentCookie); err == nil && ck.Value == "1" {
			want = true
		}
		if got := hasConsent(r); got != want {
			t.Errorf("hasConsent(%q) = %v, net/http parser says %v", c, got, want)
		}
	}
}

// TestPageCacheConcurrentServe exercises the RWMutex page cache through
// the public handler from many goroutines (run under -race by
// race-core): mixed consent/vantage variants against overlapping sites.
func TestPageCacheConcurrentServe(t *testing.T) {
	srv := New(testWorld, testClock)
	var sites []*webworld.Site
	for _, s := range testWorld.Sites {
		if s.Reachable && s.RedirectTo == "" {
			sites = append(sites, s)
			if len(sites) == 16 {
				break
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				site := sites[(g+i)%len(sites)]
				req := httptest.NewRequest("GET", "http://"+site.Domain+"/", nil)
				if i%2 == 0 {
					req.Header.Set("Cookie", consentToken)
				}
				if i%3 == 0 {
					req.Header.Set(VantageHeader, "us")
				}
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
					t.Errorf("site %s: status %d, %d bytes", site.Domain, rec.Code, rec.Body.Len())
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
