package durable

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Options tune a Journal. The zero value is the production
// configuration; the hooks exist for internal/chaos to inject
// deterministic crashes and storage faults.
type Options struct {
	// FS, if set, replaces the production filesystem for the journal
	// file and its sidecars (chaos.FaultFS injects ENOSPC/EIO/short
	// writes here). Nil means the real OS.
	FS FS
	// Retry bounds transient-error retries on the artifact writes that
	// ride along with the journal (manifest, frame index, snapshots).
	// The zero value means a single attempt.
	Retry RetryPolicy
	// Wrap, if set, wraps the raw file writer (below the buffer and the
	// gzip member). chaos uses it to simulate torn writes: a wrapper
	// that writes a partial record and then fails persistently.
	Wrap func(io.Writer) io.Writer
	// BeforeAppend, if set, runs before record recordIndex (0-based) is
	// framed and written. Returning an error aborts the append — the
	// chaos crashpoint injector kills the "process" here.
	BeforeAppend func(recordIndex int64) error
}

// Checkpoint identifies a committed (fsync'd) state of a journal: the
// byte offset in the file up to which every record is durable, how many
// records that prefix holds, and the running CRC-32C over their
// payloads.
type Checkpoint struct {
	Offset     int64
	Records    int64
	PayloadCRC uint32
}

// Journal is an append-only framed record file with checkpoint
// discipline. Records buffer in user space between checkpoints; Sync
// closes the current gzip member (for .gz paths), flushes, fsyncs and
// returns the new committed Checkpoint. A crash between checkpoints
// loses at most the records since the last Sync, and the torn tail
// (including a half-written gzip member) is recoverable by ScanRecords
// from the committed offset.
type Journal struct {
	path     string
	compress bool
	fsys     FS
	f        File
	count    *countingWriter
	bw       *bufio.Writer
	zw       *gzip.Writer // open gzip member, nil between members
	buf      []byte
	opts     Options

	records   int64
	crc       uint32
	committed Checkpoint
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// Compressed reports whether a journal path uses gzip framing, by the
// same suffix rule the dataset readers apply.
func Compressed(path string) bool { return strings.HasSuffix(path, ".gz") }

// Create creates (or truncates) a journal at path. A ".gz" suffix
// selects gzip member framing.
func Create(path string, opts Options) (*Journal, error) {
	f, err := fsOrOS(opts.FS).Create(path)
	if err != nil {
		return nil, fmt.Errorf("durable: creating journal %s: %w", path, err)
	}
	return newJournal(path, f, Checkpoint{}, opts), nil
}

// OpenAt reopens an existing journal for appending at a committed
// checkpoint. The file is truncated to the checkpoint offset — anything
// after it is an uncommitted tail the caller has already salvaged — and
// writing resumes in a fresh gzip member, which multistream readers
// decode transparently.
func OpenAt(path string, at Checkpoint, opts Options) (*Journal, error) {
	f, err := fsOrOS(opts.FS).OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: opening journal %s: %w", path, err)
	}
	if err := f.Truncate(at.Offset); err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: truncating %s to %d: %w", path, at.Offset, err)
	}
	if _, err := f.Seek(at.Offset, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: seeking %s: %w", path, err)
	}
	return newJournal(path, f, at, opts), nil
}

func newJournal(path string, f File, at Checkpoint, opts Options) *Journal {
	var raw io.Writer = f
	if opts.Wrap != nil {
		raw = opts.Wrap(raw)
	}
	count := &countingWriter{w: raw, n: at.Offset}
	return &Journal{
		path:      path,
		compress:  Compressed(path),
		fsys:      fsOrOS(opts.FS),
		f:         f,
		count:     count,
		bw:        bufio.NewWriterSize(count, 1<<16),
		opts:      opts,
		records:   at.Records,
		crc:       at.PayloadCRC,
		committed: at,
	}
}

// Append frames and buffers one record payload. The record is durable
// only after the next Sync.
func (j *Journal) Append(payload []byte) error {
	if j.opts.BeforeAppend != nil {
		if err := j.opts.BeforeAppend(j.records); err != nil {
			return err
		}
	}
	var w io.Writer = j.bw
	if j.compress {
		if j.zw == nil {
			j.zw = gzip.NewWriter(j.bw)
		}
		w = j.zw
	}
	j.buf = AppendFrame(j.buf[:0], payload)
	if _, err := w.Write(j.buf); err != nil {
		return fmt.Errorf("durable: appending to %s: %w", j.path, err)
	}
	j.records++
	j.crc = PayloadCRC(j.crc, payload)
	return nil
}

// Records returns the total record count including buffered,
// not-yet-committed appends.
func (j *Journal) Records() int64 { return j.records }

// Sync commits everything appended so far: it closes the open gzip
// member, flushes the buffer and fsyncs the file, then returns the new
// checkpoint. Sync with nothing new appended is a no-op returning the
// current checkpoint (no empty gzip members accrete). The next Append
// opens a fresh member, so the committed offset is always a gzip member
// boundary — a seekable resume point.
func (j *Journal) Sync() (Checkpoint, error) {
	if j.records == j.committed.Records {
		return j.committed, nil
	}
	if j.zw != nil {
		if err := j.zw.Close(); err != nil {
			return j.committed, fmt.Errorf("durable: closing gzip member of %s: %w", j.path, err)
		}
		j.zw = nil
	}
	if err := j.bw.Flush(); err != nil {
		return j.committed, fmt.Errorf("durable: flushing %s: %w", j.path, err)
	}
	// A transient fsync failure is retryable — the user-space buffer
	// already flushed, so re-issuing the fsync is safe. Stream errors
	// (flush above) are not: bufio latches them, and the caller's drain
	// path owns recovery from the last committed checkpoint.
	if err := j.opts.Retry.Do("journal-fsync", j.f.Sync); err != nil {
		return j.committed, fmt.Errorf("durable: syncing %s: %w", j.path, err)
	}
	j.committed = Checkpoint{Offset: j.count.n, Records: j.records, PayloadCRC: j.crc}
	return j.committed, nil
}

// Abort closes the journal file without committing buffered records —
// the kill -9 path of the crash harness. The on-disk state stays
// exactly what the last Sync (plus any buffer spills the OS already
// accepted) left behind.
func (j *Journal) Abort() error { return j.f.Close() }

// Close commits any buffered records and closes the file.
func (j *Journal) Close() error {
	_, syncErr := j.Sync()
	closeErr := j.f.Close()
	if syncErr != nil {
		return syncErr
	}
	if closeErr != nil {
		return fmt.Errorf("durable: closing %s: %w", j.path, closeErr)
	}
	return j.fsys.SyncDir(filepath.Dir(j.path))
}
