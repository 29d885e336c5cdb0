package durable

import (
	"bufio"
	"bytes"
	"hash/crc32"
	"io"
	"strconv"
)

// framePrefix opens a record-frame header line: `#r <len> <crc32hex>`.
// JSON records never start with '#', so framed and legacy unframed
// JSONL coexist in one stream and stay greppable.
const framePrefix = "#r "

// maxFrameLen bounds a single record payload (64 MiB): a header
// announcing more is corruption, not data.
const maxFrameLen = 1 << 26

// castagnoli is the CRC-32C table framing uses (hardware-accelerated on
// amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// PayloadCRC extends a running CRC-32C over one record payload; the
// manifest carries the accumulated value as the journal's content hash.
func PayloadCRC(crc uint32, payload []byte) uint32 {
	return crc32.Update(crc, castagnoli, payload)
}

// AppendFrame appends one framed record to buf: the header line, the
// payload, and a terminating newline. Readers take the payload by its
// length, so it may hold any bytes (the .idx segments are binary); only
// a legacy unframed line must be free of newlines.
func AppendFrame(buf []byte, payload []byte) []byte {
	buf = append(buf, framePrefix...)
	buf = strconv.AppendInt(buf, int64(len(payload)), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, uint64(crc32.Checksum(payload, castagnoli)), 16)
	buf = append(buf, '\n')
	buf = append(buf, payload...)
	buf = append(buf, '\n')
	return buf
}

// parseFrameHeader parses a `#r <len> <crc32hex>` line (without the
// trailing newline).
func parseFrameHeader(line []byte) (length int, crc uint32, ok bool) {
	rest, found := bytes.CutPrefix(line, []byte(framePrefix))
	if !found {
		return 0, 0, false
	}
	lenPart, crcPart, found := bytes.Cut(rest, []byte{' '})
	if !found {
		return 0, 0, false
	}
	n, err := strconv.ParseInt(string(lenPart), 10, 64)
	if err != nil || n < 0 || n > maxFrameLen {
		return 0, 0, false
	}
	c, err := strconv.ParseUint(string(bytes.TrimSpace(crcPart)), 16, 32)
	if err != nil {
		return 0, 0, false
	}
	return int(n), uint32(c), true
}

// FrameMatches reports whether header is a well-formed `#r <len> <crc>`
// frame header (without its newline) whose length and CRC-32C match
// payload — the check ScanRecords applies, for readers that split lines
// themselves.
func FrameMatches(header, payload []byte) bool {
	n, crc, ok := parseFrameHeader(header)
	return ok && n == len(payload) && crc32.Checksum(payload, castagnoli) == crc
}

// ScanStats reports what a salvaging scan recovered and where (and why)
// it stopped.
type ScanStats struct {
	// Records is the number of valid records delivered.
	Records int64
	// PayloadCRC is the running CRC-32C over every delivered payload.
	PayloadCRC uint32
	// Bytes is how many (decompressed) bytes the valid prefix spans.
	Bytes int64
	// Truncated reports that the stream ended in a torn or corrupt tail
	// rather than a clean EOF; TruncatedBytes counts the (decompressed)
	// bytes discarded after the last valid record, and Reason names the
	// defect: "torn-header", "torn-payload", "crc-mismatch",
	// "torn-line", "read-error".
	Truncated      bool
	TruncatedBytes int64
	Reason         string
}

// ScanRecords streams the valid prefix of a (possibly crashed) record
// stream into fn. Framed records are length- and CRC-verified; legacy
// unframed lines pass through as-is, except a final line without a
// newline, which a line-at-a-time writer can only leave behind by
// dying mid-write. Any defect — a torn header, a short payload, a CRC
// mismatch, a decompression error from a torn gzip member — ends the
// scan *without error*: the stats report the truncation and fn has
// received every record before it. Only fn's own errors propagate.
//
// The scan reuses its buffers from record to record, so fn must not
// retain payload (or modify it) past its return; copy what it keeps.
func ScanRecords(r io.Reader, fn func(payload []byte) error) (ScanStats, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var st ScanStats
	var consumed int64 // bytes consumed including the tail being read
	var long, buf []byte
	truncate := func(reason string, tail int64) (ScanStats, error) {
		st.Truncated = true
		st.Reason = reason
		st.TruncatedBytes = tail + drain(br)
		return st, nil
	}
	deliver := func(payload []byte) error {
		if err := fn(payload); err != nil {
			return err
		}
		st.Records++
		st.PayloadCRC = PayloadCRC(st.PayloadCRC, payload)
		st.Bytes = consumed
		return nil
	}
	for {
		var line []byte
		var err error
		line, long, err = readLine(br, long)
		consumed += int64(len(line))
		if err == io.EOF {
			if len(line) == 0 {
				return st, nil
			}
			// A final line without its newline is a torn write.
			return truncate("torn-line", int64(len(line)))
		}
		if err != nil {
			return truncate("read-error", int64(len(line)))
		}
		line = line[:len(line)-1]
		if len(line) == 0 {
			st.Bytes = consumed
			continue
		}
		if !bytes.HasPrefix(line, []byte(framePrefix)) {
			if err := deliver(line); err != nil {
				return st, err
			}
			continue
		}
		n, wantCRC, ok := parseFrameHeader(line)
		head := int64(len(line)) + 1
		if !ok {
			return truncate("torn-header", head)
		}
		if cap(buf) < n+1 {
			buf = make([]byte, n+1)
		}
		payload := buf[:n+1]
		read, err := io.ReadFull(br, payload)
		consumed += int64(read)
		if err != nil || payload[n] != '\n' {
			return truncate("torn-payload", head+int64(read))
		}
		payload = payload[:n]
		if crc32.Checksum(payload, castagnoli) != wantCRC {
			return truncate("crc-mismatch", head+int64(n)+1)
		}
		if err := deliver(payload); err != nil {
			return st, err
		}
	}
}

// readLine reads through the next newline the way bufio's ReadBytes
// does, but hands out the reader's own buffer when the line fits in it
// and otherwise assembles it in long, which it returns for reuse; either
// way the line is valid only until the next read.
func readLine(br *bufio.Reader, long []byte) (line, grown []byte, err error) {
	line, err = br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, long, err
	}
	long = append(long[:0], line...)
	for err == bufio.ErrBufferFull {
		line, err = br.ReadSlice('\n')
		long = append(long, line...)
	}
	return long, long, err
}

// ScanFrames is ScanRecords over an in-memory buffer: the same framing,
// salvage rules and stats, but fn receives sub-slices of data rather
// than copies, so scanning a whole-file sidecar allocates nothing. fn
// must not modify the slices it is handed.
func ScanFrames(data []byte, fn func(payload []byte) error) (ScanStats, error) {
	var st ScanStats
	truncate := func(reason string) (ScanStats, error) {
		st.Truncated = true
		st.Reason = reason
		st.TruncatedBytes = int64(len(data)) - st.Bytes
		return st, nil
	}
	for pos := 0; pos < len(data); {
		nl := bytes.IndexByte(data[pos:], '\n')
		if nl < 0 {
			return truncate("torn-line")
		}
		payload := data[pos : pos+nl]
		pos += nl + 1
		if len(payload) == 0 {
			st.Bytes = int64(pos)
			continue
		}
		if bytes.HasPrefix(payload, []byte(framePrefix)) {
			n, wantCRC, ok := parseFrameHeader(payload)
			if !ok {
				return truncate("torn-header")
			}
			if len(data)-pos < n+1 || data[pos+n] != '\n' {
				return truncate("torn-payload")
			}
			payload = data[pos : pos+n]
			pos += n + 1
			if crc32.Checksum(payload, castagnoli) != wantCRC {
				return truncate("crc-mismatch")
			}
		}
		if err := fn(payload); err != nil {
			return st, err
		}
		st.Records++
		st.PayloadCRC = PayloadCRC(st.PayloadCRC, payload)
		st.Bytes = int64(pos)
	}
	return st, nil
}

// drain counts whatever readable bytes remain after a truncation point,
// so TruncatedBytes reflects the whole discarded tail. Read errors
// (torn gzip members) simply end the count.
func drain(br *bufio.Reader) int64 {
	var n int64
	buf := make([]byte, 1<<14)
	for {
		m, err := br.Read(buf)
		n += int64(m)
		if err != nil {
			return n
		}
	}
}
