package webserver

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"github.com/netmeasure/topicscope/internal/etld"
	"github.com/netmeasure/topicscope/internal/webworld"
)

// UnreachableError simulates the network-level failures a real crawl
// encounters for the world's unreachable sites (§2.4: "domain name
// resolution or connection-related errors").
type UnreachableError struct {
	Host string
	Mode webworld.FailureMode
}

func (e *UnreachableError) Error() string {
	switch e.Mode {
	case webworld.FailDNS:
		return fmt.Sprintf("lookup %s: no such host", e.Host)
	case webworld.FailRefused:
		return fmt.Sprintf("dial tcp %s:80: connection refused", e.Host)
	default:
		return fmt.Sprintf("dial tcp %s:80: i/o timeout", e.Host)
	}
}

// Timeout implements net.Error-style timeout reporting.
func (e *UnreachableError) Timeout() bool { return e.Mode == webworld.FailTimeout }

// ErrorClass maps the failure onto the chaos taxonomy (the interface
// chaos.Classify duck-types on).
func (e *UnreachableError) ErrorClass() string {
	switch e.Mode {
	case webworld.FailDNS:
		return "dns"
	case webworld.FailRefused:
		return "refused"
	default:
		return "timeout"
	}
}

// unreachable checks whether a hostname belongs to an unreachable ranked
// site.
func unreachable(w *webworld.World, host string) *UnreachableError {
	host = etld.Normalize(host)
	site, ok := w.SiteByDomain(host)
	if ok && !site.Reachable {
		return &UnreachableError{Host: host, Mode: site.Failure}
	}
	return nil
}

// Transport is an in-process http.RoundTripper that routes every
// hostname straight into the Server handler — no sockets, suitable for
// large simulated crawls — while reproducing per-site network failures.
type Transport struct {
	Server *Server
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := req.Context().Err(); err != nil {
		return nil, err
	}
	host := req.URL.Host
	if host == "" {
		host = req.Host
	}
	if err := unreachable(t.Server.World, host); err != nil {
		return nil, err
	}
	w := &responseWriter{}
	t.Server.ServeHTTP(w, req)
	return w.response(req), nil
}

// responseWriter is the in-process transport's http.ResponseWriter. It
// hands the handler's own header map and body to the *http.Response
// instead of snapshot-cloning them the way httptest.ResponseRecorder
// does, while keeping net/http's implicit 200 and its Content-Type
// sniffing for handlers that set none. The writer is also the
// response's storage: response returns its resp field, with reader as
// the body, so one allocation carries the whole exchange.
type responseWriter struct {
	resp   http.Response
	header http.Header
	body   []byte
	reader bodyReader
	status int
	// shared marks header as a package-level read-only map (see
	// setContentType); Header clones it before handing it out.
	shared bool
}

// Header returns the response's header map, built on first use. A
// shared map is cloned first, so a handler never writes into it.
func (w *responseWriter) Header() http.Header {
	if w.shared {
		w.header, w.shared = w.header.Clone(), false
	} else if w.header == nil {
		w.header = make(http.Header)
	}
	return w.header
}

func (w *responseWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

// begin applies net/http's first-write defaults: the implicit 200 and a
// sniffed Content-Type when the handler set none.
func (w *responseWriter) begin(p []byte) {
	if w.status == 0 {
		if _, ok := w.header["Content-Type"]; !ok && w.header.Get("Transfer-Encoding") == "" {
			w.Header().Set("Content-Type", http.DetectContentType(p))
		}
		w.status = http.StatusOK
	}
}

func (w *responseWriter) Write(p []byte) (int, error) {
	w.begin(p)
	// Copy: callers such as fmt.Fprint reuse p once Write returns.
	w.body = append(w.body, p...)
	return len(p), nil
}

// writeShared keeps an immutable body without copying it when it is the
// whole response so far. The slice is capped at its length, so a later
// Write appends into a fresh array rather than into p's.
func (w *responseWriter) writeShared(p []byte) {
	w.begin(p)
	if len(w.body) == 0 {
		w.body = p[:len(p):len(p)]
		return
	}
	w.body = append(w.body, p...)
}

// bodyReader is a response body over the writer's bytes, stored in the
// writer itself where io.NopCloser(bytes.NewReader(b)) costs two
// allocations.
type bodyReader struct{ b []byte }

func (r *bodyReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

func (*bodyReader) Close() error { return nil }

// Bytes returns the unread part of the body without copying it, as
// bytes.Buffer.Bytes does. The bytes may be shared with other responses
// (a cached page, a fixed asset) and must not be modified.
func (r *bodyReader) Bytes() []byte { return r.b }

// statusLine returns the Status text net/http gives a code, pre-built
// for the codes the synthetic web answers with.
func statusLine(code int) string {
	switch code {
	case http.StatusOK:
		return "200 OK"
	case http.StatusNoContent:
		return "204 No Content"
	case http.StatusMovedPermanently:
		return "301 Moved Permanently"
	case http.StatusNotFound:
		return "404 Not Found"
	}
	return strconv.Itoa(code) + " " + http.StatusText(code)
}

func (w *responseWriter) response(req *http.Request) *http.Response {
	status := w.status
	if status == 0 {
		status = http.StatusOK
	}
	header := w.header
	if header == nil {
		header = make(http.Header)
	}
	w.reader.b = w.body
	w.resp = http.Response{
		Status:        statusLine(status),
		StatusCode:    status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        header,
		Body:          &w.reader,
		ContentLength: -1,
		Request:       req,
	}
	return &w.resp
}

// Client returns an http.Client wired to the server in-process. Redirects
// are followed by the caller (the browser), so the client reports them
// verbatim.
func (s *Server) Client() *http.Client {
	return &http.Client{
		Transport: &Transport{Server: s},
		CheckRedirect: func(*http.Request, []*http.Request) error {
			return http.ErrUseLastResponse
		},
	}
}

// NewTCPClient returns a client that dials every hostname to the given
// listener address (as a crawler pointed at topics-serve would), while
// still simulating per-site network failures locally.
func NewTCPClient(w *webworld.World, addr string, timeout time.Duration) *http.Client {
	dialer := &net.Dialer{Timeout: timeout}
	transport := &http.Transport{
		DialContext: func(ctx context.Context, network, _ string) (net.Conn, error) {
			return dialer.DialContext(ctx, network, addr)
		},
		MaxIdleConnsPerHost: 64,
	}
	return &http.Client{
		Transport: &failingTransport{world: w, next: transport},
		CheckRedirect: func(*http.Request, []*http.Request) error {
			return http.ErrUseLastResponse
		},
		Timeout: timeout,
	}
}

// failingTransport injects the world's unreachable-site failures in
// front of a real network transport.
type failingTransport struct {
	world *webworld.World
	next  http.RoundTripper
}

func (t *failingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := unreachable(t.world, req.URL.Host); err != nil {
		return nil, err
	}
	return t.next.RoundTrip(req)
}
