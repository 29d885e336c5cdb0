package chaos

import (
	"io"
	"maps"
	"net/http"
	"strconv"
	"strings"

	"github.com/netmeasure/topicscope/internal/etld"
)

// Injector is a client-side http.RoundTripper that applies the fault
// profile in front of any transport — the in-process webserver
// transport or a real TCP/TLS one — so the same chaos configuration
// works for every crawl mode.
type Injector struct {
	cfg   Config
	next  http.RoundTripper
	stats Stats
}

// NewInjector wraps a transport with fault injection. A nil next uses
// http.DefaultTransport.
func NewInjector(cfg Config, next http.RoundTripper) *Injector {
	if next == nil {
		next = http.DefaultTransport
	}
	return &Injector{cfg: cfg, next: next}
}

// Stats exposes the injection counters.
func (in *Injector) Stats() *Stats { return &in.stats }

// RoundTrip implements http.RoundTripper.
func (in *Injector) RoundTrip(req *http.Request) (*http.Response, error) {
	if !in.cfg.Enabled {
		return in.next.RoundTrip(req)
	}
	if err := req.Context().Err(); err != nil {
		return nil, err
	}
	host := normalizeHost(requestHost(req))
	d := in.cfg.Decide(host, req.URL.Path,
		req.Header.Get(VirtualTimeHeader), req.Header.Get(AttemptHeader))
	in.stats.observe(d)
	switch d.Class {
	case ClassNone:
		resp, err := in.next.RoundTrip(req)
		if err == nil && d.Latency > 0 {
			// The header map may be shared with other responses (the
			// in-process transport hands out read-only maps), so the
			// latency goes into a copy. The values stay shared: none
			// is written.
			h := make(http.Header, len(resp.Header)+1)
			maps.Copy(h, resp.Header)
			h[LatencyHeader] = []string{strconv.FormatInt(int64(d.Latency), 10)}
			resp.Header = h
		}
		return resp, err
	case ClassHTTP5xx:
		return synthesize5xx(req, d.Status), nil
	case ClassTruncated:
		resp, err := in.next.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		resp.Body = truncateBody(resp.Body, host)
		return resp, nil
	default:
		return nil, &Error{Class: d.Class, Host: host, Latency: d.Latency}
	}
}

func requestHost(req *http.Request) string {
	if req.URL != nil && req.URL.Host != "" {
		return req.URL.Host
	}
	return req.Host
}

// normalizeHost canonicalizes a request host the same way every other
// package does: through etld.Normalize (lowercase, port and
// trailing-dot strip), so per-host fault profiles match regardless of
// how the host was spelled on the wire.
func normalizeHost(host string) string {
	return etld.Normalize(host)
}

// synthesize5xx builds an injected server-error response without
// touching the backend, like a dying origin behind a healthy LB.
func synthesize5xx(req *http.Request, status int) *http.Response {
	if status == 0 {
		status = http.StatusInternalServerError
	}
	body := "chaos: injected " + strconv.Itoa(status) + "\n"
	return &http.Response{
		StatusCode:    status,
		Status:        strconv.Itoa(status) + " " + http.StatusText(status),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": []string{"text/plain; charset=utf-8"}},
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// truncateBody wraps a response body so that reading it yields roughly
// half the payload and then a truncation error, like a connection cut
// mid-transfer.
func truncateBody(body io.ReadCloser, host string) io.ReadCloser {
	data, err := io.ReadAll(body)
	body.Close()
	if err != nil {
		data = nil
	}
	return &truncatedReader{data: data[:len(data)/2], host: host}
}

type truncatedReader struct {
	data []byte
	off  int
	host string
}

func (t *truncatedReader) Read(p []byte) (int, error) {
	if t.off >= len(t.data) {
		return 0, &Error{Class: ClassTruncated, Host: t.host}
	}
	n := copy(p, t.data[t.off:])
	t.off += n
	return n, nil
}

func (t *truncatedReader) Close() error { return nil }

// Handler is the server-side counterpart of Injector: it wraps the
// synthetic web's handler so a topics-serve instance misbehaves over
// real TCP. Decisions come from the same pure function, so a crawl
// against a chaotic server matches one with a client-side injector of
// the same seed for every fault class a server can express (connection
// drops stand in for refused/timeout).
type Handler struct {
	cfg   Config
	next  http.Handler
	stats Stats
}

// NewHandler wraps an http.Handler with fault injection.
func NewHandler(cfg Config, next http.Handler) *Handler {
	return &Handler{cfg: cfg, next: next}
}

// Stats exposes the injection counters.
func (h *Handler) Stats() *Stats { return &h.stats }

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.cfg.Enabled {
		h.next.ServeHTTP(w, r)
		return
	}
	d := h.cfg.Decide(normalizeHost(r.Host), r.URL.Path,
		r.Header.Get(VirtualTimeHeader), r.Header.Get(AttemptHeader))
	h.stats.observe(d)
	switch d.Class {
	case ClassNone:
		if d.Latency > 0 {
			w.Header().Set(LatencyHeader, strconv.FormatInt(int64(d.Latency), 10))
		}
		h.next.ServeHTTP(w, r)
	case ClassHTTP5xx:
		http.Error(w, "chaos: injected fault", d.Status)
	case ClassTruncated:
		h.truncate(w, r)
	default:
		// Refused, reset and timeout all collapse to an aborted
		// connection over real TCP.
		panic(http.ErrAbortHandler)
	}
}

// truncate renders the full response, then sends only half of it under
// the full Content-Length, so the client fails mid-read.
func (h *Handler) truncate(w http.ResponseWriter, r *http.Request) {
	rec := &recordingWriter{header: make(http.Header)}
	h.next.ServeHTTP(rec, r)
	for k, vs := range rec.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(rec.body)))
	status := rec.status
	if status == 0 {
		status = http.StatusOK
	}
	w.WriteHeader(status)
	w.Write(rec.body[:len(rec.body)/2]) //nolint:errcheck // the point is a broken write
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	panic(http.ErrAbortHandler)
}

// recordingWriter buffers a downstream response for truncation.
type recordingWriter struct {
	header http.Header
	body   []byte
	status int
}

func (r *recordingWriter) Header() http.Header { return r.header }

func (r *recordingWriter) Write(p []byte) (int, error) {
	r.body = append(r.body, p...)
	return len(p), nil
}

func (r *recordingWriter) WriteHeader(status int) {
	if r.status == 0 {
		r.status = status
	}
}
