package browser

import (
	"context"
	"errors"
	"net/http"
	"net/url"
	"reflect"
	"testing"
	"time"

	"github.com/netmeasure/topicscope/internal/webworld"
)

// sentRequest is what one RoundTrip call was handed: the request
// itself and a snapshot of its URL and headers at that moment.
type sentRequest struct {
	req    *http.Request
	url    string
	header http.Header
}

// snapshotTransport records every request it is handed, then answers
// through next, or fails with fail when next is nil.
type snapshotTransport struct {
	next http.RoundTripper
	fail error
	sent []sentRequest
}

func (s *snapshotTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s.sent = append(s.sent, sentRequest{req: req, url: req.URL.String(), header: req.Header.Clone()})
	if s.next == nil {
		return nil, s.fail
	}
	return s.next.RoundTrip(req)
}

func snapshotBrowser(rt http.RoundTripper) *Browser {
	return New(Config{
		Client:             &http.Client{Transport: rt},
		ReferenceAllowlist: twAllow,
		Now:                func() time.Time { return twNow },
	})
}

func mustParse(t *testing.T, raw string) *url.URL {
	t.Helper()
	u, err := url.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// TestReusedRequestCarriesNoStaleHeaders fetches with a Referer, the
// consent cookie and a Sec-Browsing-Topics value, then fetches another
// host with none of them on the same page load: the second request is
// the same *http.Request, and the handler sees none of the three.
func TestReusedRequestCarriesNoStaleHeaders(t *testing.T) {
	site := findSite(t, func(s *webworld.Site) bool { return s.RedirectTo == "" })
	rec := &snapshotTransport{next: twServer.Client().Transport}
	b := snapshotBrowser(rec)
	b.SetConsent(site.Domain)
	ctx := context.Background()
	v := &PageVisit{visitedSite: site.Domain}

	first := mustParse(t, "http://"+site.Domain+"/static/2.png")
	if _, _, err := b.fetchOnce(ctx, v, first, []string{"http://" + site.Domain + "/"}, "(1 2);v=chrome.1:1:2", 0); err != nil {
		t.Fatal(err)
	}
	second := mustParse(t, "http://criteo.com/px.gif")
	if _, _, err := b.fetchOnce(ctx, v, second, nil, "", 0); err != nil {
		t.Fatal(err)
	}

	if len(rec.sent) != 2 {
		t.Fatalf("%d requests sent, want 2", len(rec.sent))
	}
	for _, k := range []string{"Referer", "Cookie", TopicsRequestHeader} {
		if _, ok := rec.sent[0].header[k]; !ok {
			t.Errorf("first request lacks %s", k)
		}
		if v, ok := rec.sent[1].header[k]; ok {
			t.Errorf("second request carries the first one's %s: %q", k, v)
		}
	}
	if rec.sent[1].url != second.String() || rec.sent[1].req.Host != second.Host {
		t.Errorf("second request went to %s (Host %s), want %s", rec.sent[1].url, rec.sent[1].req.Host, second)
	}
	if rec.sent[0].req != rec.sent[1].req {
		t.Error("a page load built a second request after a successful fetch")
	}
}

// TestFailedRequestIsNotReused hands the browser a transport that keeps
// the request it failed: the next fetch leaves that request's URL and
// headers as they were and gets a new *http.Request.
func TestFailedRequestIsNotReused(t *testing.T) {
	site := findSite(t, func(s *webworld.Site) bool { return s.RedirectTo == "" })
	rec := &snapshotTransport{fail: errors.New("transport down")}
	b := snapshotBrowser(rec)
	b.SetConsent(site.Domain)
	ctx := context.Background()
	v := &PageVisit{visitedSite: site.Domain}

	if _, _, err := b.fetchOnce(ctx, v, mustParse(t, "http://"+site.Domain+"/"), []string{"http://" + site.Domain + "/"}, "(1);v=chrome.1:1:2", 0); err == nil {
		t.Fatal("fetch through a failing transport succeeded")
	}
	if _, _, err := b.fetchOnce(ctx, v, mustParse(t, "http://criteo.com/t"), nil, "", 1); err == nil {
		t.Fatal("fetch through a failing transport succeeded")
	}

	if len(rec.sent) != 2 {
		t.Fatalf("%d requests sent, want 2", len(rec.sent))
	}
	failed := rec.sent[0]
	if got := failed.req.URL.String(); got != failed.url {
		t.Errorf("the failed request's URL changed to %s, was %s", got, failed.url)
	}
	if !reflect.DeepEqual(failed.req.Header, failed.header) {
		t.Errorf("the failed request's headers changed to %v, were %v", failed.req.Header, failed.header)
	}
	if rec.sent[1].req == failed.req {
		t.Error("the fetch after a failed RoundTrip reused the failed request")
	}
}
