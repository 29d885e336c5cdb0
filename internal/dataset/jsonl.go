package dataset

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"github.com/netmeasure/topicscope/internal/durable"
)

// frameHeaderPrefix marks durable record-frame header lines; JSON
// records never start with '#'.
var frameHeaderPrefix = []byte("#r ")

// Writer streams visit records as JSON Lines, the on-disk format of the
// crawl. It is not safe for concurrent use; the crawler serialises
// writes through a single goroutine.
type Writer struct {
	bw  *bufio.Writer
	enc *json.Encoder
	n   int
}

// NewWriter wraps w in a JSONL visit writer.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriterSize(w, 1<<16)
	return &Writer{bw: bw, enc: json.NewEncoder(bw)}
}

// Write appends one visit record.
func (w *Writer) Write(v *Visit) error {
	if err := w.enc.Encode(v); err != nil {
		return fmt.Errorf("dataset: encoding visit %q: %w", v.Site, err)
	}
	w.n++
	return nil
}

// Count returns how many records were written.
func (w *Writer) Count() int { return w.n }

// Flush drains buffered output.
func (w *Writer) Flush() error {
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("dataset: flushing: %w", err)
	}
	return nil
}

// Read streams visit records from a JSONL stream into fn; it stops on
// the first malformed line or when fn returns an error. A record-frame
// header line (`#r <len> <crc>`, written by the durable journal) is
// checked against the line after it: a length or CRC-32C mismatch, or
// a header with no line after it, is an error, so a corrupt record in
// an uncompressed journal cannot parse its way into a report. Legacy
// unframed lines read as plain JSONL.
func Read(r io.Reader, fn func(*Visit) error) error {
	return readRecords(r, func() *Visit { return new(Visit) }, fn)
}

// Load reads an entire JSONL stream into memory, decoding each record
// straight into its slot in the dataset.
func Load(r io.Reader) (*Dataset, error) {
	d := &Dataset{}
	err := readRecords(r, func() *Visit {
		d.Visits = append(d.Visits, Visit{})
		return &d.Visits[len(d.Visits)-1]
	}, func(*Visit) error { return nil })
	if err != nil {
		return nil, err
	}
	return d, nil
}

// readRecords is Read with each record decoded into the Visit slot
// returns.
func readRecords(r io.Reader, slot func() *Visit, fn func(*Visit) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var header []byte // the pending frame header, copied off the scanner's buffer
	line, headerLine := 0, 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		switch {
		case headerLine > 0:
			if !durable.FrameMatches(header, b) {
				return frameMismatch(headerLine)
			}
			headerLine = 0
		case bytes.HasPrefix(b, frameHeaderPrefix):
			header = append(header[:0], b...)
			headerLine = line
			continue
		case len(b) == 0:
			continue
		}
		v := slot()
		if err := DecodeVisit(b, v); err != nil {
			return fmt.Errorf("dataset: line %d: %w", line, err)
		}
		if err := fn(v); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("dataset: scanning: %w", err)
	}
	if headerLine > 0 {
		return frameMismatch(headerLine)
	}
	return nil
}

func frameMismatch(line int) error {
	return fmt.Errorf("dataset: line %d: frame length/CRC mismatch (run topics-fsck)", line)
}

// LoadFile loads a JSONL dataset from disk (.gz transparently). A
// journal's .fidx splits the read into member ranges decoded in
// parallel, one per CPU (see MemberRanges); the result, and any error,
// is exactly the sequential read's.
func LoadFile(path string) (*Dataset, error) {
	return loadFile(path, runtime.GOMAXPROCS(0))
}

// loadFile is LoadFile over at most workers member ranges. One range —
// no .fidx, a single member or a single worker — is the sequential
// read; so is any split a range disagrees with.
func loadFile(path string, workers int) (*Dataset, error) {
	if ranges := MemberRanges(path, 0, -1, workers); len(ranges) > 1 {
		if d, ok := loadRanges(path, ranges); ok {
			return d, nil
		}
	}
	f, err := OpenReader(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// SaveFile writes the dataset to disk as JSONL (.gz transparently).
func (d *Dataset) SaveFile(path string) (err error) {
	f, err := OpenWriter(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("dataset: closing %s: %w", path, cerr)
		}
	}()
	w := NewWriter(f)
	for i := range d.Visits {
		if err := w.Write(&d.Visits[i]); err != nil {
			return err
		}
	}
	return w.Flush()
}
