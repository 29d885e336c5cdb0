package analysis

import (
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"runtime"
	"sort"

	"github.com/netmeasure/topicscope/internal/attestation"
	"github.com/netmeasure/topicscope/internal/dataset"
	"github.com/netmeasure/topicscope/internal/durable"
	"github.com/netmeasure/topicscope/internal/etld"
)

// Visits returns how many records the accumulator holds.
func (s *LiveIndex) Visits() int { return s.visits }

// Callers returns every distinct calling party folded so far, sorted:
// the domains whose attestations the report needs. Every report path
// takes its attestation sweep's callers from here, so none needs the
// visits themselves.
func (s *LiveIndex) Callers() []string {
	out := make([]string, 0, len(s.callers))
	for c := range s.callers {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Snapshot finalizes the accumulator into a full Index against the
// given input (which supplies the allow-list block and the attestation
// checks) without consuming it: the aggregates are deep-copied first,
// so folding continues cleanly afterwards — the monitor renders a
// report every refresh while the campaign appends.
func (s *LiveIndex) Snapshot(in *Input) *Index {
	return s.clone(in).finalize(in)
}

// clone deep-copies every aggregate so finalize (which resolves
// attestation facts into the caller map) and later folds cannot see
// each other.
func (s *LiveIndex) clone(in *Input) *LiveIndex {
	c := newLiveIndex(in, s.cache)
	c.visits = s.visits
	for phase, sets := range s.called {
		c.called[phase] = cloneSiteSets(sets)
	}
	for phase, sets := range s.present {
		c.present[phase] = cloneSiteSets(sets)
	}
	for caller, facts := range s.callers {
		c.callers[caller] = facts
	}
	c.attempted = copyMap(s.attempted)
	c.visited = copyMap(s.visited)
	c.accepted = copyMap(s.accepted)
	c.thirdParties = copyMap(s.thirdParties)
	c.daaSites = copyMap(s.daaSites)
	c.aaLegitCalled = cloneSiteSets(s.aaLegitCalled)
	c.banners = s.banners

	c.retries = s.retries
	c.circuitOpens = s.circuitOpens
	c.relAttempted = s.relAttempted
	c.relSucceeded = s.relSucceeded
	c.relFailed = s.relFailed
	c.partialVisits = s.partialVisits
	c.byClass = copyMap(s.byClass)
	for rank, rc := range s.ranks {
		c.ranks[rank] = &rankCount{attempted: rc.attempted, succeeded: rc.succeeded}
	}
	c.maxRank = s.maxRank

	c.anomCalls = s.anomCalls
	c.sameSLD = s.sameSLD
	c.jsCalls = s.jsCalls
	c.anomCPs = copyMap(s.anomCPs)
	c.anomSites = copyMap(s.anomSites)
	c.gtmSites = copyMap(s.gtmSites)

	c.f7Total = s.f7Total
	c.f7Quest = s.f7Quest
	c.sitesByCMP = copyMap(s.sitesByCMP)
	c.questByCMP = copyMap(s.questByCMP)

	for phase, types := range s.byPhase {
		c.byPhase[phase] = copyMap(types)
	}
	c.legitByType = copyMap(s.legitByType)
	c.anomByType = copyMap(s.anomByType)
	for cp, types := range s.perCP {
		c.perCP[cp] = copyMap(types)
	}

	c.langVisited = s.langVisited
	c.langNoBanner = s.langNoBanner
	c.langMissed = s.langMissed
	c.acceptedByLang = copyMap(s.acceptedByLang)

	if s.epochs != nil {
		c.epochs = make(map[int]*epochCount, len(s.epochs))
		for ep, ec := range s.epochs {
			c.epochs[ep] = &epochCount{
				visits:  ec.visits,
				calls:   ec.calls,
				callers: copyMap(ec.callers),
				sites:   copyMap(ec.sites),
			}
		}
	}
	return c
}

func cloneSiteSets(src map[string]siteSet) map[string]siteSet {
	out := make(map[string]siteSet, len(src))
	for k, set := range src {
		out[k] = copyMap(set)
	}
	return out
}

// IndexSnapshotPath derives the serialized-index sidecar path for a
// journal.
func IndexSnapshotPath(journalPath string) string { return journalPath + ".idx" }

// allowlistCRC fingerprints the allow-list a fold classified against, so
// a snapshot folded under one list is never finalized under another.
func allowlistCRC(allow *attestation.Allowlist) uint32 {
	if allow == nil {
		return 0
	}
	var crc uint32
	for _, d := range allow.Domains() {
		crc = crc32.Update(crc, crc32.IEEETable, []byte(d))
		crc = crc32.Update(crc, crc32.IEEETable, []byte{'\n'})
	}
	return crc
}

// segment wraps the accumulator as the .idx segment covering the
// committed records (base, ck.Records]: a full segment when base is 0,
// else a delta holding only those records. Encoding reads the
// accumulator's maps and never writes them, so it is O(accumulator).
func (s *LiveIndex) segment(journalPath string, base int64, ck durable.Checkpoint) *segment {
	return &segment{
		Journal:      filepath.Base(journalPath),
		Records:      ck.Records,
		Base:         base,
		PayloadCRC:   ck.PayloadCRC,
		AllowlistCRC: allowlistCRC(s.in.Allowlist),
		live:         s,
	}
}

// segmentLog describes a decoded .idx log the way a sink appending to it
// needs: the records its last segment covers, the payload bytes of its
// full segment and of the deltas after it, whether damaged bytes trail
// the last valid segment, and the chain's string table, which the next
// delta extends.
type segmentLog struct {
	records     int64
	full, delta int64
	trailing    bool
	table       *stringTable
}

// decodeSegments decodes the valid framed prefix of an .idx log into its
// segment chain: a full segment, then deltas each continuing exactly
// where its predecessor ended and extending its string table. A broken
// chain or an undecodable segment rejects the whole log; damage after
// the last valid frame only marks it trailing.
func decodeSegments(data []byte) ([]*segment, segmentLog, error) {
	var segs []*segment
	var log segmentLog
	cache := etld.NewCache()
	st, err := durable.ScanFrames(data, func(payload []byte) error {
		r := &segmentReader{data: payload}
		seg, err := r.header()
		if err != nil {
			return err
		}
		if len(segs) == 0 {
			if seg.Base != 0 {
				return fmt.Errorf("analysis: index snapshot: log opens with a delta from %d", seg.Base)
			}
			log.full = int64(len(payload))
			log.table = &stringTable{}
		} else {
			if seg.Base != log.records || seg.Base == 0 {
				return fmt.Errorf("analysis: index snapshot: segment from %d does not continue %d", seg.Base, log.records)
			}
			log.delta += int64(len(payload))
		}
		if err := r.body(seg, log.table, cache); err != nil {
			return err
		}
		log.records = seg.Records
		segs = append(segs, seg)
		return nil
	})
	if err != nil {
		return nil, segmentLog{}, err
	}
	if len(segs) == 0 {
		return nil, segmentLog{}, fmt.Errorf("analysis: index snapshot: no valid segment")
	}
	log.trailing = st.Truncated
	return segs, log, nil
}

// VerifyIndexSnapshot checks .idx bytes the way a restore reads them,
// short of the manifest match: every byte framed and CRC-clean, every
// segment decodable, the chain unbroken and naming journalPath's
// journal. It returns the committed state the log describes.
func VerifyIndexSnapshot(data []byte, journalPath string) (records int64, payloadCRC uint32, err error) {
	segs, log, err := decodeSegments(data)
	if err != nil {
		return 0, 0, err
	}
	if log.trailing {
		return 0, 0, fmt.Errorf("analysis: index snapshot: damaged bytes after segment %d", len(segs))
	}
	for _, seg := range segs {
		if seg.Journal != filepath.Base(journalPath) {
			return 0, 0, fmt.Errorf("analysis: index snapshot: segment names journal %q", seg.Journal)
		}
	}
	last := segs[len(segs)-1]
	return last.Records, last.PayloadCRC, nil
}

// StoreSnapshot atomically replaces the .idx beside the journal with the
// accumulator's serialized form — a log of one full segment — tied to
// the given committed checkpoint, and returns the segment's payload
// size.
func (s *LiveIndex) StoreSnapshot(journalPath string, ck durable.Checkpoint) (int64, error) {
	log, err := s.storeSnapshot(journalPath, ck)
	return log.full, err
}

// storeSnapshot is StoreSnapshot returning the layout of the log written.
func (s *LiveIndex) storeSnapshot(journalPath string, ck durable.Checkpoint) (segmentLog, error) {
	payload, table := s.segment(journalPath, 0, ck).encode(nil)
	err := durable.WriteFileAtomicFS(s.in.FS, IndexSnapshotPath(journalPath), func(w io.Writer) error {
		_, werr := w.Write(durable.AppendFrame(nil, payload))
		return werr
	})
	return segmentLog{records: ck.Records, full: int64(len(payload)), table: table}, err
}

// SnapshotInfo describes a restored index snapshot.
type SnapshotInfo struct {
	// Records/PayloadCRC are the committed journal state the snapshot
	// covers; Offset is that state's byte offset in the journal, from
	// the manifest the snapshot was validated against.
	Records    int64
	PayloadCRC uint32
	Offset     int64
	// Visits is how many records were folded into it.
	Visits int
}

// LoadIndexSnapshot restores the live index a previous run serialized
// beside the journal. It is an accelerator with the manifest's
// contract: missing, unreadable, corrupt, version-skewed files — or a
// snapshot tied to a different journal name, a different committed
// state than the current manifest, or a different allow-list — all
// return nil, and the caller falls back to folding from byte 0. It
// never errors.
func LoadIndexSnapshot(journalPath string, in *Input) (*LiveIndex, *SnapshotInfo) {
	segs, info, _ := validLog(journalPath, in)
	if segs == nil {
		return nil, nil
	}
	return restoreSegments(in, segs), info
}

// validLog decodes the journal's .idx log when it describes exactly the
// manifest's committed state — a full segment, every delta continuing
// its predecessor, every segment naming this journal and allow-list,
// the last one the manifest's (records, payload CRC) — and returns its
// segments, what they cover and their layout; nil segments otherwise.
func validLog(journalPath string, in *Input) ([]*segment, *SnapshotInfo, segmentLog) {
	m := durable.LoadManifestFS(in.FS, journalPath)
	if m == nil {
		return nil, nil, segmentLog{}
	}
	segs, log, err := decodeLog(journalPath, in)
	if err != nil {
		return nil, nil, segmentLog{}
	}
	last := segs[len(segs)-1]
	if last.Records != m.Records || last.PayloadCRC != m.PayloadCRC {
		return nil, nil, segmentLog{}
	}
	return segs, &SnapshotInfo{
		Records:    last.Records,
		PayloadCRC: last.PayloadCRC,
		Offset:     m.Offset,
		Visits:     int(last.Records),
	}, log
}

// readSegmentLog returns the accumulator the journal's .idx segments up
// to exactly records encode — the prefix a sink verified, whatever
// bytes a failed append left after it.
func readSegmentLog(journalPath string, in *Input, records int64) (*LiveIndex, error) {
	segs, _, err := decodeLog(journalPath, in)
	if err != nil {
		return nil, err
	}
	n := 0
	for n < len(segs) && segs[n].Records <= records {
		n++
	}
	if n == 0 || segs[n-1].Records != records {
		return nil, fmt.Errorf("analysis: index snapshot: log does not reach record %d", records)
	}
	return restoreSegments(in, segs[:n]), nil
}

// decodeLog reads and decodes the journal's .idx log, every segment of
// which must name this journal and allow-list.
func decodeLog(journalPath string, in *Input) ([]*segment, segmentLog, error) {
	fsys := in.FS
	if fsys == nil {
		fsys = durable.OS
	}
	data, err := fsys.ReadFile(IndexSnapshotPath(journalPath))
	if err != nil {
		return nil, segmentLog{}, err
	}
	segs, log, err := decodeSegments(data)
	if err != nil {
		return nil, segmentLog{}, err
	}
	journal, allow := filepath.Base(journalPath), allowlistCRC(in.Allowlist)
	for _, seg := range segs {
		if seg.Journal != journal || seg.AllowlistCRC != allow {
			return nil, segmentLog{}, fmt.Errorf("analysis: index snapshot: segment of journal %q, allow-list %x", seg.Journal, seg.AllowlistCRC)
		}
	}
	return segs, log, nil
}

// restoreSegments merges a decoded segment chain into its first
// segment's accumulator, bound to in. Each segment holds its own
// records' visits, so the merge covers the chain's last record count.
func restoreSegments(in *Input, segs []*segment) *LiveIndex {
	s := segs[0].live
	for _, seg := range segs[1:] {
		s.Absorb(seg.live)
	}
	s.in = in
	return s
}

// LiveStats reports how a live index was (re)assembled and what it cost
// in journal bytes — the O(tail + snapshot) guarantee the tests pin.
type LiveStats struct {
	// SnapshotRestored reports whether the serialized index was usable;
	// false means the reader degraded to a full scan.
	SnapshotRestored bool
	// SnapshotRecords is the committed record count the restored
	// snapshot covered (0 when none).
	SnapshotRecords int64
	// TailRecords counts the records folded from the journal itself.
	TailRecords int64
	// BytesRead is the raw journal bytes read off disk.
	BytesRead int64
	// Truncated reports a torn tail after the last valid record.
	Truncated bool
}

// LoadLiveIndex assembles the fold accumulator for a (possibly still
// growing) journal: restore the checkpoint snapshot and fold only the
// tail past the committed offset — O(tail + snapshot) bytes — or
// degrade to a full folding scan when the snapshot is unusable. The
// returned accumulator is not finalized: the attestation sweep reads
// its Callers() first (campaign.Env.Analyze runs both steps).
func LoadLiveIndex(journalPath string, in *Input) (*LiveIndex, *LiveStats, error) {
	st := &LiveStats{}
	live, info := LoadIndexSnapshot(journalPath, in)
	var offset int64
	if live != nil {
		st.SnapshotRestored = true
		st.SnapshotRecords = info.Records
		offset = info.Offset
	} else {
		live = NewLiveIndex(in)
	}
	if err := foldRecords(journalPath, offset, -1, live, st, runtime.GOMAXPROCS(0)); err != nil {
		return nil, nil, err
	}
	in.Metrics.Add("analysis_live_tail_records_total", st.TailRecords)
	return live, st, nil
}

// FoldJournal folds every record of the journal, from byte 0, into s
// with the parallel range fold (see foldRecords). It reads no .idx: a
// reader that must not trust the snapshot folds the journal itself.
func (s *LiveIndex) FoldJournal(journalPath string) error {
	return foldRecords(journalPath, 0, -1, s, &LiveStats{}, runtime.GOMAXPROCS(0))
}

// foldRecords folds the journal's records from the committed byte
// offset on into s — only the first limit of them, when limit is not
// negative — one .fidx member range per worker (see
// dataset.MemberRanges), and adds what it read to st: the records
// folded, the journal bytes read, and whether a torn tail follows the
// last valid record. A committed range that does not hold exactly what
// the .fidx promised voids the split, with everything its ranges read,
// and s folds the one sequential range instead, so the .fidx can make
// the fold faster but never different.
func foldRecords(journalPath string, offset, limit int64, s *LiveIndex, st *LiveStats, workers int) error {
	ranges := dataset.MemberRanges(journalPath, offset, limit, workers)
	if len(ranges) > 1 {
		parts := make([]LiveStats, len(ranges))
		if foldParts(s, len(ranges), func(i int, part *LiveIndex) error {
			return foldRange(journalPath, ranges[i], part, &parts[i])
		}) == nil {
			for _, p := range parts {
				st.TailRecords += p.TailRecords
				st.BytesRead += p.BytesRead
				st.Truncated = p.Truncated
			}
			return nil
		}
	}
	return foldRange(journalPath, dataset.MemberRange{Start: offset, End: -1, Records: limit}, s, st)
}

// foldRange folds one member range into s (see dataset.ScanMemberRange).
func foldRange(journalPath string, r dataset.MemberRange, s *LiveIndex, st *LiveStats) error {
	rs, err := dataset.ScanMemberRange(journalPath, r, func(payload []byte) error {
		var v dataset.Visit
		if uerr := dataset.DecodeVisit(payload, &v); uerr != nil {
			return fmt.Errorf("analysis: decoding journal record: %w", uerr)
		}
		s.Fold(&v)
		return nil
	})
	if err != nil {
		return err
	}
	st.TailRecords += rs.Records
	st.BytesRead += rs.BytesRead
	st.Truncated = rs.Truncated
	return nil
}

// LiveSink is the fold consumer hooked into the crawler's rank-ordered
// sink: it implements dataset.VisitObserver, folding every appended
// record and persisting the fold beside the journal at every committed
// checkpoint. The write rides the same cadence as the manifest, so
// `<out>.idx` always describes a state the manifest can vouch for.
//
// A checkpoint appends one delta segment holding only the records it
// commits, so its cost is O(delta), not O(index). The log is compacted
// — rewritten atomically as one full segment — at the sink's first
// checkpoint, whenever the deltas since the last full segment reach its
// size (so the file stays under about twice the index and the rewrites
// grow geometrically), and at a checkpoint that commits no new records.
// The crawler's final Flush + Close is such a checkpoint, so a finished
// campaign leaves one full segment whose bytes depend only on its
// records, not on the cadence or the crashes that produced them.
//
// Between compactions the log on disk is the accumulator: the sink
// keeps in memory only the records it has not yet persisted and the
// log's string table (which each delta extends, so a delta spells only
// the strings the log has not), and a compaction reads the log back to
// merge them.
type LiveSink struct {
	path string
	in   *Input
	// delta holds the records the log does not: those past log.records,
	// or every record while the log is unverified (log.full == 0).
	delta *LiveIndex
	// log is the .idx as the sink last verified or wrote it. A log with
	// trailing set has unverified bytes past log.records (a failed
	// append), so the next checkpoint compacts instead of appending.
	log segmentLog
}

// NewLiveSink returns a sink for a fresh journal.
func NewLiveSink(journalPath string, in *Input) *LiveSink {
	return &LiveSink{path: journalPath, in: in, delta: NewLiveIndex(in)}
}

// OpenLiveSink returns a sink for a journal about to be resumed:
// verify the snapshot against the manifest (O(snapshot)), else fold the
// committed prefix from byte 0 (the degrade path — salvage, never
// error). Records past the committed checkpoint are NOT folded here:
// ResumeJournal re-appends the kept tail groups through the observer,
// which is where they reach the sink.
func OpenLiveSink(journalPath string, in *Input) (*LiveSink, *LiveStats, error) {
	st := &LiveStats{}
	if segs, info, log := validLog(journalPath, in); segs != nil {
		st.SnapshotRestored = true
		st.SnapshotRecords = info.Records
		in.Metrics.Add("analysis_index_snapshots_restored_total", 1)
		return &LiveSink{path: journalPath, in: in, delta: NewLiveIndex(in), log: log}, st, nil
	}
	records := int64(-1)
	if m := durable.LoadManifestFS(in.FS, journalPath); m != nil {
		records = m.Records
	}
	if records <= 0 {
		// Nothing committed (or no usable manifest, in which case the
		// resume's own salvaging scan replays everything through the
		// observer): start empty.
		return NewLiveSink(journalPath, in), st, nil
	}
	live := NewLiveIndex(in)
	if err := foldRecords(journalPath, 0, records, live, st, runtime.GOMAXPROCS(0)); err != nil {
		return nil, nil, err
	}
	in.Metrics.Add("analysis_index_snapshot_rebuilds_total", 1)
	return &LiveSink{path: journalPath, in: in, delta: live}, st, nil
}

// Live assembles the sink's whole accumulator: the log read back from
// disk (or, if it cannot be read, the journal prefix it covers) merged
// with the records not yet persisted. It is a copy — folding into it
// does not reach the sink — and nil when neither source is readable.
func (s *LiveSink) Live() *LiveIndex {
	live := NewLiveIndex(s.in)
	if s.log.full > 0 {
		var err error
		if live, err = s.persisted(); err != nil {
			return nil
		}
	}
	live.Absorb(s.delta.clone(s.in))
	return live
}

// persisted reads back the accumulator of the log's verified prefix,
// refolding the journal when the log itself cannot be read.
func (s *LiveSink) persisted() (*LiveIndex, error) {
	if live, err := readSegmentLog(s.path, s.in, s.log.records); err == nil {
		return live, nil
	}
	live := NewLiveIndex(s.in)
	err := foldRecords(s.path, 0, s.log.records, live, &LiveStats{}, runtime.GOMAXPROCS(0))
	if err == nil && int64(live.visits) != s.log.records {
		err = fmt.Errorf("analysis: journal %s holds %d of %d committed records", s.path, live.visits, s.log.records)
	}
	return live, err
}

// ObserveVisit folds one appended record.
func (s *LiveSink) ObserveVisit(v *dataset.Visit) {
	s.delta.Fold(v)
	s.in.Metrics.Add("analysis_live_visits_folded_total", 1)
}

// ObserveCheckpoint persists the records the committed state adds: one
// delta segment appended, or the whole log compacted (see LiveSink). A
// sink attached mid-journal (fold count out of step with the commit)
// writes nothing — a snapshot must never describe records it did not
// fold. The snapshot is an accelerator: a storage fault while writing
// it is counted and absorbed (readers degrade to a full fold, and the
// next checkpoint compacts), never surfaced as a checkpoint failure.
func (s *LiveSink) ObserveCheckpoint(ck durable.Checkpoint) error {
	log := s.log
	var base int64
	if log.full > 0 {
		base = log.records
	}
	if base+int64(s.delta.visits) != ck.Records {
		return nil
	}
	if log.full > 0 && !log.trailing && log.delta == 0 && log.records == ck.Records {
		return nil // the log already is this state's single full segment
	}
	// A delta extends a verified log whose full segment holds records
	// (base 0 marks a full segment), and its string table.
	if log.full > 0 && !log.trailing && log.records > 0 && log.records < ck.Records && log.delta < log.full {
		payload, _ := s.delta.segment(s.path, log.records, ck).encode(log.table)
		if err := durable.AppendFileFS(s.in.FS, IndexSnapshotPath(s.path), durable.AppendFrame(nil, payload)); err != nil {
			// The table now holds strings the file may lack; the
			// compaction a trailing log forces starts a fresh one.
			s.log.trailing = true
			s.in.Metrics.Add("storage_accelerator_write_failures_total", 1, "artifact", "snapshot")
			return nil
		}
		s.log.records = ck.Records
		s.log.delta += int64(len(payload))
		s.delta = NewLiveIndex(s.in)
		s.in.Metrics.Add("analysis_index_snapshots_written_total", 1, "segment", "delta")
		return nil
	}
	full := s.delta
	if log.full > 0 {
		var err error
		if full, err = s.persisted(); err != nil {
			s.in.Metrics.Add("storage_accelerator_write_failures_total", 1, "artifact", "snapshot")
			return nil
		}
		full.Absorb(s.delta)
	}
	written, err := full.storeSnapshot(s.path, ck)
	if err != nil {
		// The file is the old log or the new one: keep everything in
		// memory and compact again at the next checkpoint.
		s.delta, s.log = full, segmentLog{}
		s.in.Metrics.Add("storage_accelerator_write_failures_total", 1, "artifact", "snapshot")
		return nil
	}
	s.delta, s.log = NewLiveIndex(s.in), written
	s.in.Metrics.Add("analysis_index_snapshots_written_total", 1, "segment", "full")
	return nil
}
