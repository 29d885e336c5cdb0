// Package durable is the crash-safe persistence layer of the pipeline:
// every dataset, report and checkpoint artifact the campaign writes to
// disk goes through it, so a process death — kill -9 mid-write, a torn
// gzip tail, a full disk — never corrupts an artifact beyond what a
// restart can recover.
//
// It provides three layers:
//
//   - WriteFileAtomic / SyncDir: the classic write-to-temp, fsync,
//     rename discipline for whole-file artifacts (reports, allow-lists,
//     manifests). Readers only ever observe the old or the new content,
//     never a torn mixture.
//
//   - Record framing (frame.go): every journal record is preceded by a
//     textual `#r <len> <crc32>` header, so a salvaging reader
//     (ScanRecords) can tell a valid prefix from a torn tail and recover
//     every intact record of a crashed file instead of failing on the
//     first bad byte. The framing is line-based on purpose: the files
//     stay greppable JSONL, and legacy unframed files still scan.
//
//   - Journal (journal.go) + Manifest (manifest.go): an append-only
//     record file with checkpoint discipline. Sync() flushes buffers,
//     closes the current gzip member and fsyncs, establishing a
//     *committed byte offset* — a boundary the companion manifest
//     records together with the record count, a running payload CRC and
//     the completed-site watermark. Resume seeks straight to the last
//     committed offset and replays only the tail, O(checkpoint) instead
//     of O(file).
//
// All of the above run through the FS seam (fs.go): the production OS
// implementation by default, or a fault-injecting wrapper
// (chaos.FaultFS) under test — ENOSPC, EIO, short writes, failed
// fsyncs and torn renames all exercise exactly the code paths a real
// disk would.
//
// What is durable when: records are durable at checkpoint (Sync)
// boundaries; between checkpoints they live in user-space buffers and a
// crash loses at most one checkpoint interval, which the resumed
// campaign deterministically re-produces. The manifest itself is
// written atomically, so it always describes a committed state of the
// journal (possibly a stale one — the journal may have synced again
// after; the salvaging tail scan absorbs the difference).
package durable

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes an artifact via a temp file in the target
// directory, fsyncs it, renames it over path and fsyncs the directory.
// The write callback receives a buffered writer; on any error the temp
// file is removed and the previous content of path (if any) is intact.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	return WriteFileAtomicFS(OS, path, write)
}

// WriteFileAtomicFS is WriteFileAtomic through an explicit filesystem
// seam (nil means the production OS filesystem).
func WriteFileAtomicFS(fsys FS, path string, write func(io.Writer) error) (err error) {
	fsys = fsOrOS(fsys)
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("durable: temp for %s: %w", path, err)
	}
	// Every failure path below — write, flush, sync, close, rename —
	// must leave no stray temp behind and never touch path itself.
	name := tmp.Name()
	closed := false
	defer func() {
		if err != nil {
			if !closed {
				tmp.Close()
			}
			fsys.Remove(name)
		}
	}()
	bw := bufio.NewWriterSize(tmp, 1<<16)
	if err = write(bw); err != nil {
		return fmt.Errorf("durable: writing %s: %w", path, err)
	}
	if err = bw.Flush(); err != nil {
		return fmt.Errorf("durable: flushing %s: %w", path, err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("durable: syncing %s: %w", path, err)
	}
	closed = true
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("durable: closing temp for %s: %w", path, err)
	}
	if err = fsys.Rename(name, path); err != nil {
		return fmt.Errorf("durable: renaming into %s: %w", path, err)
	}
	return fsys.SyncDir(dir)
}

// AppendFileFS appends data to an existing file and fsyncs it: the write
// path of append-only sidecars whose every byte is framed, so a torn
// append leaves a detectable tail rather than silent damage. It never
// creates the file — an append log is established by WriteFileAtomicFS.
func AppendFileFS(fsys FS, path string, data []byte) error {
	f, err := fsOrOS(fsys).OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("durable: opening %s for append: %w", path, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("durable: appending to %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("durable: syncing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("durable: closing %s: %w", path, err)
	}
	return nil
}

// SyncDir fsyncs a directory through the production filesystem,
// tolerating only benign refusals (permission, EINVAL on filesystems
// that cannot fsync a directory handle); real I/O errors propagate.
func SyncDir(dir string) error { return OS.SyncDir(dir) }
