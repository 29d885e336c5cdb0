package webserver

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"github.com/netmeasure/topicscope/internal/adcatalog"
	"github.com/netmeasure/topicscope/internal/attestation"
	"github.com/netmeasure/topicscope/internal/chaos"
	"github.com/netmeasure/topicscope/internal/cmpdb"
	"github.com/netmeasure/topicscope/internal/webworld"
)

// assertResponseParity compares a transport response with the one
// httptest.ResponseRecorder builds for the same handler output.
func assertResponseParity(t *testing.T, got, want *http.Response) {
	t.Helper()
	if got.StatusCode != want.StatusCode || got.Status != want.Status {
		t.Errorf("status %d %q, recorder %d %q", got.StatusCode, got.Status, want.StatusCode, want.Status)
	}
	if got.Proto != want.Proto || got.ProtoMajor != want.ProtoMajor || got.ProtoMinor != want.ProtoMinor {
		t.Errorf("proto %q, recorder %q", got.Proto, want.Proto)
	}
	if got.ContentLength != want.ContentLength {
		t.Errorf("content length %d, recorder %d", got.ContentLength, want.ContentLength)
	}
	if !reflect.DeepEqual(got.Header, want.Header) {
		t.Errorf("header %v, recorder %v", got.Header, want.Header)
	}
	gb, err := io.ReadAll(got.Body)
	if err != nil {
		t.Fatal(err)
	}
	wb, _ := io.ReadAll(want.Body)
	if string(gb) != string(wb) {
		t.Errorf("body %q, recorder %q", gb, wb)
	}
}

// TestTransportMatchesRecorder checks the in-process transport's
// response writer against httptest.ResponseRecorder for one request to
// every endpoint kind of the synthetic web.
func TestTransportMatchesRecorder(t *testing.T) {
	srv := New(testWorld, testClock)
	tr := &Transport{Server: srv}
	plain := pickSite(t, func(s *webworld.Site) bool { return s.RedirectTo == "" && s.OtherLibTopicsCall })
	redirecting := pickSite(t, func(s *webworld.Site) bool { return s.RedirectTo != "" })
	gtm := pickSite(t, func(s *webworld.Site) bool { return s.RedirectTo == "" && s.HasGTM && s.GTMTopicsCall })
	var unattested *adcatalog.Platform
	for _, p := range testWorld.Catalog.All() {
		if !p.Attested {
			unattested = p
			break
		}
	}
	if unattested == nil {
		t.Fatal("no unattested platform in the test world")
	}
	longTail := pickSite(t, func(s *webworld.Site) bool { return len(s.LongTail) > 0 }).LongTail[0]
	cmp := cmpdb.All()[0].Domain
	topics := map[string]string{TopicsRequestHeader: "(1 2);v=chrome.1:1:2"}

	cases := []struct {
		name, url string
		hdr       map[string]string
		status    int
	}{
		{"landing page", "http://" + plain.Domain + "/", nil, http.StatusOK},
		{"landing page consented", "http://" + plain.Domain + "/", map[string]string{"Cookie": consentToken}, http.StatusOK},
		{"sister 301", "http://" + redirecting.Domain + "/", nil, http.StatusMovedPermanently},
		{"static css", "http://" + plain.Domain + "/static/0.css", nil, http.StatusOK},
		{"static js", "http://" + plain.Domain + "/static/1.js", nil, http.StatusOK},
		{"static pixel", "http://" + plain.Domain + "/static/2.png", nil, http.StatusOK},
		{"ads lib", "http://" + plain.Domain + "/js/ads-lib.js", nil, http.StatusOK},
		{"privacy", "http://" + plain.Domain + "/privacy", nil, http.StatusOK},
		{"site 404", "http://" + plain.Domain + "/nope", nil, http.StatusNotFound},
		{"tag.js", "http://criteo.com/tag.js", map[string]string{"Referer": "http://" + plain.Domain + "/"}, http.StatusOK},
		{"topics frame", "http://criteo.com/topics-frame.html", nil, http.StatusOK},
		{"ad frame", "http://criteo.com/ad.html", nil, http.StatusOK},
		{"ad frame with topics", "http://criteo.com/ad.html", topics, http.StatusOK},
		{"fetch beacon", "http://criteo.com/t", nil, http.StatusNoContent},
		{"fetch beacon with topics", "http://criteo.com/t", topics, http.StatusNoContent},
		{"pixel", "http://criteo.com/px.gif", nil, http.StatusOK},
		{"attestation", "http://criteo.com" + attestation.WellKnownPath, nil, http.StatusOK},
		{"attestation missing", "http://" + unattested.Domain + attestation.WellKnownPath, nil, http.StatusNotFound},
		{"platform 404", "http://criteo.com/nope", nil, http.StatusNotFound},
		{"cmp loader", "http://" + cmp + "/consent.js", nil, http.StatusOK},
		{"cmp css", "http://" + cmp + "/banner.css", nil, http.StatusOK},
		{"cmp 404", "http://" + cmp + "/nope", nil, http.StatusNotFound},
		{"gtm", "http://" + webworld.GTMDomain + "/gtm.js?id=GTM-1", map[string]string{"Referer": "http://" + gtm.Domain + "/"}, http.StatusOK},
		{"gtm inert", "http://" + webworld.GTMDomain + "/gtm.js?id=GTM-1", nil, http.StatusOK},
		{"gtm 404", "http://" + webworld.GTMDomain + "/nope", nil, http.StatusNotFound},
		{"long-tail js", "http://" + longTail + "/w.js", nil, http.StatusOK},
		{"long-tail gif", "http://" + longTail + "/p.gif", nil, http.StatusOK},
		{"long-tail other", "http://" + longTail + "/x", nil, http.StatusOK},
		{"unknown host", "http://unknown-host.invalid/", nil, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			newReq := func() *http.Request {
				req := httptest.NewRequest(http.MethodGet, tc.url, nil)
				for k, v := range tc.hdr {
					req.Header.Set(k, v)
				}
				req.Header.Set(VirtualTimeHeader, testClock().Format("2006-01-02T15:04:05Z07:00"))
				return req
			}
			req := newReq()
			got, err := tr.RoundTrip(req)
			if err != nil {
				t.Fatalf("RoundTrip: %v", err)
			}
			if got.StatusCode != tc.status {
				t.Errorf("status %d, want %d", got.StatusCode, tc.status)
			}
			if got.Request != req {
				t.Error("response does not point back at its request")
			}
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, newReq())
			assertResponseParity(t, got, rec.Result())
		})
	}
}

// TestResponseWriterNetHTTPSemantics drives the writer with handlers
// that lean on net/http's implicit behaviour — no WriteHeader, no
// Content-Type, a reused write buffer — and compares with the recorder.
func TestResponseWriterNetHTTPSemantics(t *testing.T) {
	handlers := map[string]http.HandlerFunc{
		"empty":        func(http.ResponseWriter, *http.Request) {},
		"sniffed html": func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "<html><body>x</body></html>") },
		"sniffed gif":  func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte("GIF89a\x01\x00\x01\x00")) },
		"sniffed text": func(w http.ResponseWriter, _ *http.Request) { fmt.Fprint(w, "plain words") },
		"explicit code": func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, "<html>")
		},
		"reused buffer": func(w http.ResponseWriter, _ *http.Request) {
			for i := 0; i < 3; i++ {
				fmt.Fprintf(w, "line %d\n", i)
			}
		},
		"second WriteHeader ignored": func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusTeapot)
			w.WriteHeader(http.StatusOK)
		},
	}
	for name, h := range handlers {
		t.Run(name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodGet, "http://example.com/", nil)
			w := &responseWriter{header: make(http.Header)}
			h(w, req)
			rec := httptest.NewRecorder()
			h(rec, req)
			assertResponseParity(t, w.response(req), rec.Result())
		})
	}
}

// TestWriteSharedKeepsBytes checks the writer's no-copy path: a shared
// body reaches the response as the same bytes, and a Write after it
// copies instead of appending into the shared slice's spare capacity.
func TestWriteSharedKeepsBytes(t *testing.T) {
	shared := make([]byte, 3, 16)
	copy(shared, "abc")
	w := &responseWriter{header: make(http.Header)}
	writeShared(w, shared)
	resp := w.response(httptest.NewRequest(http.MethodGet, "http://example.com/", nil))
	if got := resp.Body.(*bodyReader).Bytes(); &got[0] != &shared[0] {
		t.Error("a shared body was copied on its way to the response")
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Errorf("sniffed Content-Type %q", ct)
	}

	fmt.Fprint(w, "def")
	if got := string(w.body); got != "abcdef" {
		t.Errorf("body %q, want %q", got, "abcdef")
	}
	if spare := shared[:6]; string(spare) != "abc\x00\x00\x00" {
		t.Errorf("a later Write reached into the shared slice: %q", spare)
	}
}

// sameMap reports whether two header maps are the same map.
func sameMap(a, b http.Header) bool {
	return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
}

// TestChaosLatencyLeavesSharedHeaderAlone sends a pixel request through
// the chaos injector with every request delayed, then one without it:
// the delayed response carries the latency header, the undelayed one
// does not and still shares the read-only Content-Type map, and that
// map holds only its Content-Type.
func TestChaosLatencyLeavesSharedHeaderAlone(t *testing.T) {
	tr := &Transport{Server: New(testWorld, testClock)}
	delayed := chaos.NewInjector(chaos.Config{
		Enabled: true, Seed: 1, FlakyRate: 1, LatencyRate: 1, MaxLatency: time.Second,
	}, tr)
	const pixel = "http://criteo.com/px.gif"

	resp, err := delayed.RoundTrip(httptest.NewRequest(http.MethodGet, pixel, nil))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get(chaos.LatencyHeader) == "" {
		t.Fatalf("delayed pixel response has no %s: %v", chaos.LatencyHeader, resp.Header)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/gif" {
		t.Errorf("delayed pixel Content-Type %q", ct)
	}

	resp, err = tr.RoundTrip(httptest.NewRequest(http.MethodGet, pixel, nil))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := resp.Header[chaos.LatencyHeader]; ok {
		t.Errorf("undelayed pixel response carries %s %q", chaos.LatencyHeader, v)
	}
	if !sameMap(resp.Header, contentTypeGIF) {
		t.Error("undelayed pixel response does not share the Content-Type map")
	}
	if want := (http.Header{"Content-Type": {"image/gif"}}); !reflect.DeepEqual(contentTypeGIF, want) {
		t.Errorf("shared map is %v, want %v", contentTypeGIF, want)
	}
}

// TestHeaderAfterSharedContentType checks that a handler which adds a
// header after a shared Content-Type writes into a map of its own.
func TestHeaderAfterSharedContentType(t *testing.T) {
	w := &responseWriter{}
	setContentType(w, contentTypeHTML)
	w.Header()[ObserveHeader] = observeTopics
	io.WriteString(w, "<html></html>")
	resp := w.response(httptest.NewRequest(http.MethodGet, "http://criteo.com/ad.html", nil))

	want := http.Header{"Content-Type": {"text/html; charset=utf-8"}, ObserveHeader: {"?1"}}
	if !reflect.DeepEqual(resp.Header, want) {
		t.Errorf("header %v, want %v", resp.Header, want)
	}
	if sameMap(resp.Header, contentTypeHTML) {
		t.Error("the handler wrote into the shared Content-Type map")
	}
	if want := (http.Header{"Content-Type": {"text/html; charset=utf-8"}}); !reflect.DeepEqual(contentTypeHTML, want) {
		t.Errorf("shared map is %v, want %v", contentTypeHTML, want)
	}
}
