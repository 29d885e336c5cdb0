package browser

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/url"
	"testing"
	"unsafe"

	"github.com/netmeasure/topicscope/internal/dataset"
	"github.com/netmeasure/topicscope/internal/htmlx"
	"github.com/netmeasure/topicscope/internal/webworld"
)

// bufferBody is a response body that exposes its bytes, as the
// in-process transport's does.
type bufferBody struct{ *bytes.Buffer }

func (bufferBody) Close() error { return nil }

// fixedBody answers every request with the same body bytes, wrapped by
// wrap.
type fixedBody struct {
	data []byte
	wrap func([]byte) io.ReadCloser
}

func (f fixedBody) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: f.wrap(f.data), Request: req}, nil
}

// TestBodyCutAtMaxSizeOnBothPaths checks that a body over maxBodySize
// is cut at the same byte whether the transport exposes its bytes or
// the browser reads the body through io.LimitReader.
func TestBodyCutAtMaxSizeOnBothPaths(t *testing.T) {
	paths := map[string]func([]byte) io.ReadCloser{
		"exposed bytes": func(p []byte) io.ReadCloser { return bufferBody{bytes.NewBuffer(p)} },
		"io.ReadAll":    func(p []byte) io.ReadCloser { return io.NopCloser(bytes.NewReader(p)) },
	}
	u, _ := url.Parse("http://example.com/big")
	for _, n := range []int{0, 1, maxBodySize - 1, maxBodySize, maxBodySize + 1, maxBodySize + 4096} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i % 251)
		}
		want := string(data[:min(n, maxBodySize)])
		for name, wrap := range paths {
			b := New(Config{Client: &http.Client{Transport: fixedBody{data, wrap}}})
			_, body, err := b.fetchOnce(context.Background(), &PageVisit{}, u, nil, "", 0)
			if err != nil {
				t.Fatalf("%s, %d bytes: %v", name, n, err)
			}
			if body != want {
				t.Errorf("%s, %d-byte body: got %d bytes, want the first %d", name, n, len(body), len(want))
			}
		}
	}
}

// inside reports whether s's bytes start within body's.
func inside(s, body string) bool {
	if s == "" || body == "" {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	lo := uintptr(unsafe.Pointer(unsafe.StringData(body)))
	return p >= lo && p < lo+uintptr(len(body))
}

// assertNoAlias fails for every string a visit records that lies inside
// one of the bodies: a record that shares a page's or script's memory
// keeps the whole body alive for as long as the record lives.
func assertNoAlias(t *testing.T, what string, v *PageVisit, bodies ...string) {
	t.Helper()
	check := func(field, s string) {
		for _, body := range bodies {
			if inside(s, body) {
				t.Errorf("%s: %s %q lies inside a fetched body", what, field, s)
			}
		}
	}
	check("PageOrigin", v.PageOrigin)
	check("FinalURL", v.FinalURL)
	for _, r := range v.Resources {
		check("Resource.URL", r.URL)
		check("Resource.Host", r.Host)
		check("Resource.Error", r.Error)
	}
	for _, c := range v.Calls {
		check("Call.Caller", c.Caller)
		check("Call.Site", c.Site)
		check("Call.ContextOrigin", c.ContextOrigin)
		check("Call.GateReason", c.GateReason)
	}
}

// docStrings returns every string a parsed document slices from its
// source: text, raw script bodies, attribute values.
func docStrings(doc *htmlx.Node) []string {
	var out []string
	doc.Walk(func(n *htmlx.Node) bool {
		out = append(out, n.Text)
		for _, a := range n.Attrs {
			out = append(out, a.Value)
		}
		return true
	})
	return out
}

// TestRecordsDoNotAliasBodies checks that no string a visit records
// shares memory with the body it was parsed from: the landing page
// (through its parsed document), a page the test holds, and a script
// body the test holds, whose directives name fetch and frame hosts.
func TestRecordsDoNotAliasBodies(t *testing.T) {
	ctx := context.Background()
	for _, site := range []*webworld.Site{
		findSite(t, func(s *webworld.Site) bool {
			return s.RedirectTo == "" && s.HasGTM && s.GTMTopicsCall && len(s.LongTail) > 1
		}),
		findSite(t, func(s *webworld.Site) bool { return s.RedirectTo != "" }),
	} {
		b := newTestBrowser(t, nil, nil)
		b.SetConsent(site.Domain)
		b.SetConsent(site.RedirectTo)
		v, err := b.LoadPage(ctx, site.Domain)
		if err != nil {
			t.Fatal(err)
		}
		if len(v.Resources) < 3 {
			t.Fatalf("%s: only %d resources", site.Domain, len(v.Resources))
		}
		assertNoAlias(t, site.Domain, v, docStrings(v.Doc)...)
	}

	site := findSite(t, func(s *webworld.Site) bool { return s.RedirectTo == "" })
	b := newTestBrowser(t, nil, nil)
	pageURL, _ := url.Parse("http://" + site.Domain + "/")
	v := &PageVisit{visitedSite: site.Domain, failures: map[string]int{}}
	ec := &execCtx{visit: v, pageURL: pageURL, origin: site.Domain}

	page := `<html><head><script src="//criteo.com/tag.js"></script>
<link rel="stylesheet" href="//cdn.widgets.example/s.css"></head>
<body><img src="//pixels.example/p.gif"><iframe browsingtopics src="//criteo.com/ad.html"></iframe></body></html>`
	b.processDocument(ctx, ec, htmlx.Parse(page))
	script := "#ts fetch url=//criteo.com/px.gif\n#ts fetch url=//criteo.com/t topics\n" +
		"#ts iframe src=//criteo.com/topics-frame.html\n#ts iframe src=//criteo.com/ad.html browsingtopics\n#ts call\n"
	b.execScript(ctx, ec, script)
	if len(v.Resources) < 8 {
		t.Fatalf("only %d resources recorded", len(v.Resources))
	}
	types := map[dataset.CallType]bool{}
	for _, c := range v.Calls {
		types[c.Type] = true
	}
	if len(types) != 3 {
		t.Fatalf("calls of types %v, want all three", types)
	}
	assertNoAlias(t, "test page and script", v, page, script)
}
