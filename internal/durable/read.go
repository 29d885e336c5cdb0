package durable

import (
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"os"
)

// CountingReader counts raw bytes pulled from the underlying reader.
// The resume path threads one under the gzip layer so tests (and the
// recovery metrics) can assert that resuming after a checkpoint reads
// O(tail) bytes, not the whole journal.
type CountingReader struct {
	r io.Reader
	n int64
}

func (cr *CountingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// BytesRead returns the raw bytes read so far.
func (cr *CountingReader) BytesRead() int64 { return cr.n }

type tailReader struct {
	io.Reader
	f *os.File
}

func (t tailReader) Close() error { return t.f.Close() }

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// CanonicalBytes returns the journal's framed-record stream: the raw
// file bytes for a plain journal, the fully decompressed multistream
// for a .gz journal. Gzip member boundaries fall at checkpoint syncs,
// so two journals holding the same records can differ in compressed
// bytes while being the same journal; the canonical stream is the
// byte-identity the merge invariant is stated over.
func CanonicalBytes(path string) ([]byte, error) {
	if !Compressed(path) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("durable: reading %s: %w", path, err)
		}
		return data, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("durable: opening %s: %w", path, err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		if err == io.EOF { // empty journal
			return nil, nil
		}
		return nil, fmt.Errorf("durable: decompressing %s: %w", path, err)
	}
	zr.Multistream(true)
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("durable: decompressing %s: %w", path, err)
	}
	return data, nil
}

// OpenTail opens a journal for reading at a committed checkpoint
// offset and returns a reader over the (decompressed) tail, plus the
// raw-byte counter beneath it. Committed offsets are gzip member
// boundaries, so a fresh multistream reader decodes the tail without
// touching the prefix. A torn gzip header in the tail yields a reader
// whose first Read fails, which ScanRecords absorbs as a truncation —
// never an open error.
func OpenTail(path string, offset int64) (io.ReadCloser, *CountingReader, error) {
	return OpenRange(path, offset, -1)
}

// OpenRange is OpenTail bounded to the journal bytes [start, end): the
// reader ends at end even when the file goes on, so a range between two
// committed offsets decodes its own gzip members and nothing past them.
// A negative end reads through EOF.
func OpenRange(path string, start, end int64) (io.ReadCloser, *CountingReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: opening tail of %s: %w", path, err)
	}
	if end < 0 {
		end = math.MaxInt64
	}
	cr := &CountingReader{r: io.NewSectionReader(f, start, end-start)}
	if !Compressed(path) {
		return tailReader{Reader: cr, f: f}, cr, nil
	}
	zr, err := gzip.NewReader(cr)
	if err != nil {
		if err == io.EOF {
			// Empty tail: the checkpoint is the end of the file.
			return tailReader{Reader: errReader{io.EOF}, f: f}, cr, nil
		}
		return tailReader{Reader: errReader{err}, f: f}, cr, nil
	}
	zr.Multistream(true)
	return tailReader{Reader: zr, f: f}, cr, nil
}
