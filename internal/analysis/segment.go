package analysis

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"github.com/netmeasure/topicscope/internal/dataset"
	"github.com/netmeasure/topicscope/internal/etld"
)

// LiveSnapshotVersion is the `<journal>.idx` segment schema version.
// Version 1 was a single unframed JSON document and version 2 a framed
// JSON segment; readers treat both as absent.
const LiveSnapshotVersion = 3

// segment is one segment of the `<journal>.idx` log: a header tying it
// to one exact committed journal state (records + payload CRC) and to
// the allow-list the classification was folded against, and the
// accumulator of the records (base, records] it covers — the whole
// accumulator when base is 0 (a full segment), else a delta.
type segment struct {
	Journal       string
	Records, Base int64
	PayloadCRC    uint32
	AllowlistCRC  uint32
	live          *LiveIndex
}

// stringTable is the string dictionary of an .idx segment chain: every
// string the segments so far introduced, indexed by ID, and the inverse
// the encoder looks IDs up in (built on first use). A full segment
// starts a table; each delta extends its predecessor's.
type stringTable struct {
	strs []string
	ids  map[string]uint32
}

func (t *stringTable) index() map[string]uint32 {
	if t.ids == nil {
		t.ids = make(map[string]uint32, len(t.strs))
		for i, s := range t.strs {
			t.ids[s] = uint32(i)
		}
	}
	return t.ids
}

// encode returns the segment's payload and the chain's string table:
// tab (nil for a full segment's fresh one) extended with the strings the
// segment names that tab lacks. The payload is, in order:
//
//   - the header: version, journal name, records, base, payload CRC,
//     allow-list CRC and visit count;
//   - the string table: the strings tab lacked, sorted and each
//     length-prefixed. A string's ID is its position in the chain's
//     table — the full segment's strings, then each delta's in turn;
//   - every accumulator field in the fixed order of fields.
//
// Integers are uvarints, except the two CRCs (4 bytes little-endian)
// and the first rank and epoch key of a map (zigzag varints). A set is
// its size, then its members' IDs in ascending order, each as the gap
// from its predecessor (the first from 0); a map is its size, then its
// entries in ascending key order, keys coded like set members. Both
// passes read the accumulator's maps and never write them, and the
// bytes depend only on its contents and the table.
func (seg *segment) encode(tab *stringTable) ([]byte, *stringTable) {
	if tab == nil {
		tab = &stringTable{}
	}
	ids := tab.index()
	w := &segmentWriter{tab: tab, collect: true}
	w.fields(seg.live)
	fresh := w.fresh
	slices.Sort(fresh)
	for i, s := range fresh {
		ids[s] = uint32(len(tab.strs) + i)
	}
	tab.strs = append(tab.strs, fresh...)

	w.collect = false
	w.buf = binary.AppendUvarint(w.buf, LiveSnapshotVersion)
	w.str(seg.Journal)
	w.uint(int(seg.Records))
	w.uint(int(seg.Base))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, seg.PayloadCRC)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, seg.AllowlistCRC)
	w.uint(seg.live.visits)
	w.uint(len(fresh))
	for _, s := range fresh {
		w.str(s)
	}
	w.fields(seg.live)
	return w.buf, tab
}

// segmentWriter encodes an accumulator in two passes over the one field
// order: the collect pass only gathers the strings the table lacks, the
// second writes the bytes.
type segmentWriter struct {
	buf     []byte
	tab     *stringTable
	collect bool
	fresh   []string
	// stack holds the ID lists being written, innermost last.
	stack []uint32
}

// fields is the payload's field order; (*segmentReader).fields mirrors
// it.
func (w *segmentWriter) fields(s *LiveIndex) {
	writeMap(w, s.called, w.sets)
	writeMap(w, s.present, w.sets)
	writeMap(w, s.callers, func(f callerFacts) { w.flag(f.allowed) })
	w.set(s.attempted)
	w.set(s.visited)
	w.set(s.accepted)
	w.set(s.thirdParties)
	w.set(s.daaSites)
	w.sets(s.aaLegitCalled)
	w.uint(s.banners)

	w.uint(s.retries)
	w.uint(s.circuitOpens)
	w.uint(s.relAttempted)
	w.uint(s.relSucceeded)
	w.uint(s.relFailed)
	w.uint(s.partialVisits)
	writeMap(w, s.byClass, w.uint)
	writeIntMap(w, s.ranks, func(rc *rankCount) {
		w.uint(rc.attempted)
		w.uint(rc.succeeded)
	})
	w.uint(s.maxRank)

	w.uint(s.anomCalls)
	w.uint(s.sameSLD)
	w.uint(s.jsCalls)
	w.set(s.anomCPs)
	w.set(s.anomSites)
	w.set(s.gtmSites)

	w.uint(s.f7Total)
	w.uint(s.f7Quest)
	writeMap(w, s.sitesByCMP, w.uint)
	writeMap(w, s.questByCMP, w.uint)

	writeMap(w, s.byPhase, func(m map[dataset.CallType]int) { writeMap(w, m, w.uint) })
	writeMap(w, s.legitByType, w.uint)
	writeMap(w, s.anomByType, w.uint)
	writeMap(w, s.perCP, func(m map[dataset.CallType]int) { writeMap(w, m, w.uint) })

	w.uint(s.langVisited)
	w.uint(s.langNoBanner)
	w.uint(s.langMissed)
	writeMap(w, s.acceptedByLang, w.uint)

	writeIntMap(w, s.epochs, func(ec *epochCount) {
		w.uint(ec.visits)
		w.uint(ec.calls)
		w.set(ec.callers)
		w.set(ec.sites)
	})
}

// uint writes a counter. Counters are never negative.
func (w *segmentWriter) uint(n int) {
	if !w.collect {
		w.buf = binary.AppendUvarint(w.buf, uint64(n))
	}
}

func (w *segmentWriter) flag(b bool) {
	if b {
		w.uint(1)
	} else {
		w.uint(0)
	}
}

// str writes a length-prefixed string outside the table.
func (w *segmentWriter) str(s string) {
	w.uint(len(s))
	w.buf = append(w.buf, s...)
}

// add registers a string on the collect pass; encode sorts the strings
// the table lacked before assigning their IDs.
func (w *segmentWriter) add(s string) {
	if _, ok := w.tab.ids[s]; !ok {
		w.tab.ids[s] = math.MaxUint32
		w.fresh = append(w.fresh, s)
	}
}

func (w *segmentWriter) set(set map[string]bool) { writeMap[string, bool](w, set, nil) }

func (w *segmentWriter) sets(m map[string]siteSet) { writeMap(w, m, w.set) }

// writeMap writes a set (val nil) or a string-keyed map: on the collect
// pass it gathers the keys the table lacks, then it writes the size and
// the entries by ascending key ID, each value through val.
func writeMap[K ~string, V any](w *segmentWriter, m map[K]V, val func(V)) {
	if w.collect {
		for k, v := range m {
			w.add(string(k))
			if val != nil {
				val(v)
			}
		}
		return
	}
	w.uint(len(m))
	start := len(w.stack)
	for k := range m {
		w.stack = append(w.stack, w.tab.ids[string(k)])
	}
	slices.Sort(w.stack[start:])
	// Nested values push past this list and pop back to its end, so ids
	// stays valid even if they grow the stack.
	ids := w.stack[start:]
	var prev uint32
	for _, id := range ids {
		w.buf = binary.AppendUvarint(w.buf, uint64(id-prev))
		prev = id
		if val != nil {
			val(m[K(w.tab.strs[id])])
		}
	}
	w.stack = w.stack[:start]
}

// writeIntMap writes an int-keyed map: its size, then its entries by
// ascending key, the first key a zigzag varint and each later one the
// gap from its predecessor.
func writeIntMap[V any](w *segmentWriter, m map[int]V, val func(V)) {
	if w.collect {
		for _, v := range m {
			val(v)
		}
		return
	}
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	w.uint(len(keys))
	for i, k := range keys {
		if i == 0 {
			w.buf = binary.AppendVarint(w.buf, int64(k))
		} else {
			w.buf = binary.AppendUvarint(w.buf, uint64(k)-uint64(keys[i-1]))
		}
		val(m[k])
	}
}

// segmentReader strictly decodes one segment payload. The first error
// sticks: every later read returns a zero value without consuming, so a
// decode runs to its end and reports the first defect.
type segmentReader struct {
	data []byte
	off  int
	strs []string
	err  error
}

func (r *segmentReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("analysis: index snapshot: "+format, args...)
	}
}

func (r *segmentReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off < len(r.data) && r.data[r.off] < 0x80 {
		r.off++
		return uint64(r.data[r.off-1])
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail("truncated or overflowing varint at byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// int reads a counter.
func (r *segmentReader) int() int {
	v := r.uvarint()
	if v > math.MaxInt {
		r.fail("counter %d overflows", v)
		return 0
	}
	return int(v)
}

// count reads the size of a list whose entries take at least min bytes
// each, rejecting any the remaining bytes cannot hold before a caller
// allocates for it.
func (r *segmentReader) count(min int) int {
	v := r.uvarint()
	if left := uint64(len(r.data)-r.off) / uint64(min); v > left {
		r.fail("%d entries claimed, %d bytes left", v, len(r.data)-r.off)
		return 0
	}
	return int(v)
}

func (r *segmentReader) fixed32() uint32 {
	if r.err != nil {
		return 0
	}
	if len(r.data)-r.off < 4 {
		r.fail("truncated header")
		return 0
	}
	r.off += 4
	return binary.LittleEndian.Uint32(r.data[r.off-4:])
}

func (r *segmentReader) flag() bool {
	v := r.uvarint()
	if v > 1 {
		r.fail("flag %d is neither 0 nor 1", v)
	}
	return v == 1
}

// bytes reads a length-prefixed byte string, aliasing the payload.
func (r *segmentReader) bytes() []byte {
	n := r.count(1)
	r.off += n
	return r.data[r.off-n : r.off]
}

// member reads the i-th ID of an ascending list as its gap from prev
// (0 before the first), advances prev to it and returns the string it
// names.
func (r *segmentReader) member(i int, prev *int) string {
	v := r.uvarint()
	if (v == 0 && i > 0) || v >= uint64(len(r.strs)-*prev) {
		r.fail("ID gap %d after %d is not ascending within the %d-string table", v, *prev, len(r.strs))
		return ""
	}
	*prev += int(v)
	return r.strs[*prev]
}

// intKey reads the next key of an ascending int-keyed map.
func (r *segmentReader) intKey(i, prev int) int {
	if r.err != nil {
		return 0
	}
	if i == 0 {
		v, n := binary.Varint(r.data[r.off:])
		if n <= 0 {
			r.fail("truncated or overflowing varint at byte %d", r.off)
			return 0
		}
		r.off += n
		return int(v)
	}
	gap := r.uvarint()
	k := int(uint64(prev) + gap)
	if gap == 0 || k <= prev {
		r.fail("key gap %d after %d is not ascending", gap, prev)
		return 0
	}
	return k
}

func (r *segmentReader) set() siteSet {
	n := r.count(1)
	set := make(siteSet, n)
	prev := 0
	for i := 0; i < n && r.err == nil; i++ {
		set[r.member(i, &prev)] = true
	}
	return set
}

func (r *segmentReader) sets() map[string]siteSet { return readMap[string](r, 2, r.set) }

func (r *segmentReader) typeCounts() map[dataset.CallType]int {
	return readMap[dataset.CallType](r, 2, r.int)
}

// readMap decodes a string-keyed map whose entries take at least min
// bytes each, pre-sized from its count.
func readMap[K ~string, V any](r *segmentReader, min int, val func() V) map[K]V {
	n := r.count(min)
	m := make(map[K]V, n)
	prev := 0
	for i := 0; i < n && r.err == nil; i++ {
		k := K(r.member(i, &prev))
		m[k] = val()
	}
	return m
}

// readIntMap decodes an int-keyed map whose entries take at least min
// bytes each, pre-sized from its count.
func readIntMap[V any](r *segmentReader, min int, val func() V) map[int]V {
	n := r.count(min)
	m := make(map[int]V, n)
	prev := 0
	for i := 0; i < n && r.err == nil; i++ {
		prev = r.intKey(i, prev)
		m[prev] = val()
	}
	return m
}

// header decodes and validates a segment header.
func (r *segmentReader) header() (*segment, error) {
	if v := r.uvarint(); r.err == nil && v != LiveSnapshotVersion {
		return nil, fmt.Errorf("analysis: index snapshot: unsupported version %d", v)
	}
	seg := &segment{Journal: string(r.bytes())}
	records, base := r.uvarint(), r.uvarint()
	seg.PayloadCRC = r.fixed32()
	seg.AllowlistCRC = r.fixed32()
	visits := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if records > math.MaxInt64 || base > records {
		return nil, fmt.Errorf("analysis: index snapshot: segment (%d,%d] out of order", base, records)
	}
	seg.Records, seg.Base = int64(records), int64(base)
	if base > 0 && records == base {
		return nil, fmt.Errorf("analysis: index snapshot: empty delta segment at %d", base)
	}
	if visits != records-base {
		return nil, fmt.Errorf("analysis: index snapshot: %d visits in segment (%d,%d]", visits, base, records)
	}
	return seg, nil
}

// body decodes the rest of the payload after header: the segment's
// strings, appended to tab, and the accumulator, straight into
// seg.live. Every string is materialized once, so all the sets naming
// it share it.
func (r *segmentReader) body(seg *segment, tab *stringTable, cache *etld.Cache) error {
	n := r.count(1)
	if n > math.MaxUint32-len(tab.strs) {
		r.fail("string table overflows")
	}
	start := r.off
	var prev []byte
	for i := 0; i < n && r.err == nil; i++ {
		s := r.bytes()
		if i > 0 && bytes.Compare(prev, s) >= 0 {
			r.fail("string table not strictly ascending at entry %d", i)
		}
		prev = s
	}
	if r.err != nil {
		return r.err
	}
	var ids map[string]uint32
	if len(tab.strs) > 0 {
		ids = tab.index()
	}
	tab.strs = slices.Grow(tab.strs, n)
	table := string(r.data[start:r.off])
	for p := 0; p < len(table); {
		l, k := binary.Uvarint(r.data[start+p:])
		s := table[p+k : p+k+int(l)]
		p += k + int(l)
		if ids != nil {
			if _, dup := ids[s]; dup {
				return fmt.Errorf("analysis: index snapshot: string %q repeats an earlier segment's", s)
			}
			ids[s] = uint32(len(tab.strs))
		}
		tab.strs = append(tab.strs, s)
	}
	r.strs = tab.strs

	seg.live = newLiveIndex(nil, cache)
	seg.live.visits = int(seg.Records - seg.Base)
	r.fields(seg.live)
	if r.err == nil && r.off != len(r.data) {
		r.fail("%d trailing bytes", len(r.data)-r.off)
	}
	return r.err
}

// fields decodes the accumulator fields in (*segmentWriter).fields
// order, replacing newLiveIndex's empty maps with pre-sized ones.
func (r *segmentReader) fields(s *LiveIndex) {
	s.called = readMap[dataset.Phase](r, 2, r.sets)
	s.present = readMap[dataset.Phase](r, 2, r.sets)
	s.callers = readMap[string](r, 2, func() callerFacts { return callerFacts{allowed: r.flag()} })
	s.attempted = r.set()
	s.visited = r.set()
	s.accepted = r.set()
	s.thirdParties = r.set()
	s.daaSites = r.set()
	s.aaLegitCalled = r.sets()
	s.banners = r.int()

	s.retries = r.int()
	s.circuitOpens = r.int()
	s.relAttempted = r.int()
	s.relSucceeded = r.int()
	s.relFailed = r.int()
	s.partialVisits = r.int()
	s.byClass = readMap[string](r, 2, r.int)
	s.ranks = readIntMap(r, 3, func() *rankCount {
		rc := &rankCount{attempted: r.int()}
		rc.succeeded = r.int()
		return rc
	})
	s.maxRank = r.int()

	s.anomCalls = r.int()
	s.sameSLD = r.int()
	s.jsCalls = r.int()
	s.anomCPs = r.set()
	s.anomSites = r.set()
	s.gtmSites = r.set()

	s.f7Total = r.int()
	s.f7Quest = r.int()
	s.sitesByCMP = readMap[string](r, 2, r.int)
	s.questByCMP = readMap[string](r, 2, r.int)

	s.byPhase = readMap[dataset.Phase](r, 2, r.typeCounts)
	s.legitByType = readMap[dataset.CallType](r, 2, r.int)
	s.anomByType = readMap[dataset.CallType](r, 2, r.int)
	s.perCP = readMap[string](r, 2, r.typeCounts)

	s.langVisited = r.int()
	s.langNoBanner = r.int()
	s.langMissed = r.int()
	s.acceptedByLang = readMap[string](r, 2, r.int)

	s.epochs = readIntMap(r, 5, func() *epochCount {
		ec := &epochCount{visits: r.int()}
		ec.calls = r.int()
		ec.callers = r.set()
		ec.sites = r.set()
		return ec
	})
	if len(s.epochs) == 0 {
		s.epochs = nil // as Fold leaves an accumulator that saw no timestamps
	}
}
