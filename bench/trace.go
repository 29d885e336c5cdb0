package main

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"github.com/netmeasure/topicscope/internal/chaos"
	"github.com/netmeasure/topicscope/internal/dataset"
	"github.com/netmeasure/topicscope/internal/durable"
	"github.com/netmeasure/topicscope/internal/webserver"
)

// span is one timed call across a layer seam. Spans on the calling
// sequence nest (parent is the innermost open span); concurrent spans
// (HTTP round trips from crawl workers) hang off the current phase and
// are not subtracted from its self time.
type span struct {
	Name   string `json:"name"`
	Class  string `json:"class,omitempty"` // artifact class of durable spans
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a top-level phase
	Conc   bool   `json:"conc,omitempty"`
	Failed bool   `json:"failed,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"` // bytes or items the call moved
}

func (s *span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer records the spans of one traced operation in memory.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	stack []int32
	phase int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), phase: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name, class string) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Class: class, ID: id, Parent: parent, Start: t.now()})
	t.stack = append(t.stack, id)
	return id
}

// beginConc opens a concurrent span under the current phase.
func (t *tracer) beginConc(name string) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: t.phase, Conc: true, Start: t.now()})
	return id
}

// end closes a span, recording what it moved and whether it failed.
func (t *tracer) end(id int32, n int64, failed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End, s.N, s.Failed = t.now(), n, failed
	if !s.Conc {
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// do runs fn as a top-level phase of the operation; fn returns how
// many items or bytes the phase moved. A nil tracer just runs fn.
func (t *tracer) do(name string, fn func() (int64, error)) error {
	if t == nil {
		_, err := fn()
		return err
	}
	id := t.begin(name, "")
	t.mu.Lock()
	prev := t.phase
	t.phase = id
	t.mu.Unlock()
	n, err := fn()
	t.mu.Lock()
	t.phase = prev
	t.mu.Unlock()
	t.end(id, n, err != nil)
	return err
}

// writeSpans stores every traced operation's spans as gzipped JSONL.
func writeSpans(path string, ops [][]span) error {
	return durable.WriteFileAtomic(path, func(w io.Writer) error {
		zw := gzip.NewWriter(w)
		enc := json.NewEncoder(zw)
		for op, spans := range ops {
			for i := range spans {
				rec := struct {
					Op int `json:"op"`
					*span
				}{op, &spans[i]}
				if err := enc.Encode(rec); err != nil {
					return err
				}
			}
		}
		return zw.Close()
	})
}

// tracedRT times Client.Transport: the in-process webserver (or any
// transport) as the crawler's browsers see it.
type tracedRT struct {
	t    *tracer
	next http.RoundTripper
}

func (rt tracedRT) RoundTrip(req *http.Request) (*http.Response, error) {
	id := rt.t.beginConc("webserver.roundtrip")
	resp, err := rt.next.RoundTrip(req)
	var refused *webserver.UnreachableError
	rt.t.end(id, 0, errors.As(err, &refused))
	return resp, err
}

// tracedWriter times the crawler's rank-ordered Writer seam.
type tracedWriter struct {
	t *tracer
	w *dataset.JournalWriter
}

func (w tracedWriter) Write(v *dataset.Visit) error {
	id := w.t.begin("dataset.write", "")
	err := w.w.Write(v)
	w.t.end(id, 1, err != nil)
	return err
}

func (w tracedWriter) SiteCompleted(rank int, site string) error {
	id := w.t.begin("dataset.site_completed", "")
	err := w.w.SiteCompleted(rank, site)
	w.t.end(id, 0, err != nil)
	return err
}

func (w tracedWriter) Flush() error {
	id := w.t.begin("dataset.flush", "")
	err := w.w.Flush()
	w.t.end(id, 0, err != nil)
	return err
}

// tracedObserver times the journal's observer seam: the live analysis
// fold and the per-checkpoint index snapshot.
type tracedObserver struct {
	t *tracer
	o dataset.VisitObserver
}

func (o tracedObserver) ObserveVisit(v *dataset.Visit) {
	id := o.t.begin("analysis.live_fold", "")
	o.o.ObserveVisit(v)
	o.t.end(id, 1, false)
}

func (o tracedObserver) ObserveCheckpoint(ck durable.Checkpoint) error {
	id := o.t.begin("analysis.checkpoint", "")
	err := o.o.ObserveCheckpoint(ck)
	o.t.end(id, 0, err != nil)
	return err
}

// tracedFS times the durable.FS seam every artifact write goes through,
// bucketing files by chaos.ClassifyArtifact.
type tracedFS struct {
	t  *tracer
	fs durable.FS
}

func classOf(path string) string { return string(chaos.ClassifyArtifact(path)) }

func (f tracedFS) open(name, path string, open func() (durable.File, error)) (durable.File, error) {
	id := f.t.begin(name, classOf(path))
	file, err := open()
	f.t.end(id, 0, err != nil)
	if err != nil {
		return nil, err
	}
	return &tracedFile{t: f.t, f: file, class: classOf(file.Name())}, nil
}

func (f tracedFS) Create(path string) (durable.File, error) {
	return f.open("durable.create", path, func() (durable.File, error) { return f.fs.Create(path) })
}

func (f tracedFS) OpenFile(path string, flag int, perm os.FileMode) (durable.File, error) {
	return f.open("durable.open", path, func() (durable.File, error) { return f.fs.OpenFile(path, flag, perm) })
}

func (f tracedFS) CreateTemp(dir, pattern string) (durable.File, error) {
	return f.open("durable.create", pattern, func() (durable.File, error) { return f.fs.CreateTemp(dir, pattern) })
}

func (f tracedFS) Rename(oldpath, newpath string) error {
	id := f.t.begin("durable.rename", classOf(newpath))
	err := f.fs.Rename(oldpath, newpath)
	f.t.end(id, 0, err != nil)
	return err
}

func (f tracedFS) Remove(path string) error {
	id := f.t.begin("durable.remove", classOf(path))
	err := f.fs.Remove(path)
	f.t.end(id, 0, err != nil)
	return err
}

func (f tracedFS) ReadFile(path string) ([]byte, error) {
	id := f.t.begin("durable.readfile", classOf(path))
	data, err := f.fs.ReadFile(path)
	f.t.end(id, int64(len(data)), err != nil)
	return data, err
}

func (f tracedFS) SyncDir(dir string) error {
	id := f.t.begin("durable.syncdir", "")
	err := f.fs.SyncDir(dir)
	f.t.end(id, 0, err != nil)
	return err
}

type tracedFile struct {
	t       *tracer
	f       durable.File
	class   string
	written int64
}

func (f *tracedFile) Write(p []byte) (int, error) {
	id := f.t.begin("durable.write", f.class)
	n, err := f.f.Write(p)
	f.written += int64(n)
	f.t.end(id, int64(n), err != nil)
	return n, err
}

func (f *tracedFile) Sync() error {
	id := f.t.begin("durable.sync", f.class)
	err := f.f.Sync()
	f.t.end(id, 0, err != nil)
	return err
}

// Close records the file's total bytes, so the last snapshot's size
// can be read off its close span.
func (f *tracedFile) Close() error {
	id := f.t.begin("durable.close", f.class)
	err := f.f.Close()
	f.t.end(id, f.written, err != nil)
	return err
}

func (f *tracedFile) Truncate(size int64) error { return f.f.Truncate(size) }

func (f *tracedFile) Seek(offset int64, whence int) (int64, error) {
	return f.f.Seek(offset, whence)
}

func (f *tracedFile) Name() string { return f.f.Name() }
