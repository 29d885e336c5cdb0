package dataset

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"github.com/netmeasure/topicscope/internal/durable"
	"github.com/netmeasure/topicscope/internal/obs"
)

// DefaultCheckpointEvery is the checkpoint cadence (completed sites per
// manifest) when the caller does not choose one. Small enough that a
// crash replays seconds of work, large enough that fsyncs stay off the
// hot path.
const DefaultCheckpointEvery = 25

// VisitObserver receives every record a journal accepts, in append
// (rank) order, plus every committed checkpoint — the hook the
// incremental analysis fold rides. ObserveVisit runs after the record
// is buffered in the journal; ObserveCheckpoint runs after the
// checkpoint's manifest (and frame index) hit disk, so an observer that
// serializes per-checkpoint state can tie it to a durable commit. On
// resume, salvaged tail records are replayed through ObserveVisit
// before the repair checkpoint fires.
type VisitObserver interface {
	ObserveVisit(v *Visit)
	ObserveCheckpoint(ck durable.Checkpoint) error
}

// JournalOptions configure a crash-safe dataset journal.
type JournalOptions struct {
	// CheckpointEvery is the number of completed sites between
	// checkpoints (journal fsync + manifest rewrite); <= 0 selects
	// DefaultCheckpointEvery.
	CheckpointEvery int
	// Metrics receives the recovery/checkpoint counters; nil is fine.
	Metrics *obs.Registry
	// Skip reports ranks accounted for outside this run (sites resumed
	// or deliberately skipped), so the completed-site watermark can
	// advance across them. Nil means no rank is skipped.
	Skip func(rank int) bool
	// Shard, when set, stamps every checkpoint manifest with the
	// journal's shard position. Resume refuses a journal whose manifest
	// carries different shard geometry — a shard restarted with the
	// wrong rank window would silently corrupt the merged campaign.
	Shard *durable.ShardInfo
	// Observer, when set, receives every accepted record and committed
	// checkpoint (see VisitObserver). Nil means no observation.
	Observer VisitObserver
	// Durable carries the low-level hooks (chaos crash injection).
	Durable durable.Options
}

func (o *JournalOptions) every() int {
	if o.CheckpointEvery <= 0 {
		return DefaultCheckpointEvery
	}
	return o.CheckpointEvery
}

// JournalWriter writes visit records through a durable.Journal with
// checkpoint discipline: records buffer between checkpoints, and every
// CheckpointEvery completed sites the journal is fsync'd and the
// companion manifest atomically rewritten with the new completed-site
// watermark. It satisfies the crawler's VisitWriter and SiteCompleter.
type JournalWriter struct {
	j    *durable.Journal
	path string
	opts JournalOptions
	fidx *durable.FrameIndex

	watermarkRank int
	watermarkSite string
	sites         int
	sinceCkpt     int
	// done holds (rank -> site) for sites completed this run that the
	// watermark has not yet swept over. Emission is rank-ordered, so it
	// stays near-empty.
	done map[int]string
}

// ResumeState reports what resuming a journal found and recovered.
type ResumeState struct {
	// Completed is the set of sites whose record groups survived in the
	// scanned region (the tail past the checkpoint, or the whole file
	// when no manifest existed). Sites at or below WatermarkRank are
	// complete but not listed here — that is the point of the manifest.
	Completed map[string]bool
	// WatermarkRank is the manifest's completed-site watermark: every
	// rank <= WatermarkRank was fully recorded (or deliberately
	// skipped) before the checkpoint. 0 without a manifest.
	WatermarkRank int
	// RecordsKept / RecordsDropped count salvaged tail records and
	// trailing incomplete-group records discarded during repair.
	RecordsKept    int64
	RecordsDropped int64
	// BytesRead is the raw (compressed) bytes read off disk during
	// resume — the O(tail) guarantee, asserted by tests.
	BytesRead int64
	// Truncated/TruncatedBytes report a torn tail (decompressed bytes
	// discarded past the last valid record).
	Truncated      bool
	TruncatedBytes int64
}

// CreateJournal creates (or truncates) a crash-safe dataset journal.
func CreateJournal(path string, opts JournalOptions) (*JournalWriter, error) {
	j, err := durable.Create(path, opts.Durable)
	if err != nil {
		return nil, err
	}
	durable.RemoveManifestFS(opts.Durable.FS, path)
	durable.RemoveFrameIndexFS(opts.Durable.FS, path)
	return &JournalWriter{j: j, path: path, opts: opts, fidx: &durable.FrameIndex{}, done: map[int]string{}}, nil
}

// errCorrupt marks the first undecodable record during a resume scan:
// everything from there on is treated as a torn tail.
var errCorrupt = errors.New("dataset: corrupt record")

// tailGroup is one site's record group salvaged from the journal tail:
// each record's payload, re-appended on repair, and its decoded Visit,
// replayed to the observer.
type tailGroup struct {
	site     string
	rank     int
	payloads [][]byte
	visits   []Visit
	complete bool
}

// groupComplete reports whether a site's record group can still grow: a
// successful, accepted Before-Accept visit is followed by an
// After-Accept record, so a group ending there was torn mid-site. A
// drain-aborted record likewise marks the site unfinished.
func groupComplete(last *Visit) bool {
	if last.ErrorClass == "aborted" {
		return false
	}
	if last.Phase == AfterAccept {
		return true
	}
	return !last.Success || !last.Accepted
}

// ResumeJournal reopens a journal for appending after a crash or
// interrupt. It loads the checkpoint manifest (absent or invalid ⇒
// a full salvaging scan from byte 0), scans only the tail past the
// committed offset, drops any trailing record group whose site was torn
// mid-write, repairs the file in place (truncate to the checkpoint,
// re-append the kept tail), writes a fresh manifest, and returns the
// writer positioned for the next site.
func ResumeJournal(path string, opts JournalOptions) (*JournalWriter, *ResumeState, error) {
	if _, err := os.Stat(path); os.IsNotExist(err) {
		w, err := CreateJournal(path, opts)
		return w, &ResumeState{Completed: map[string]bool{}}, err
	}
	var ck durable.Checkpoint
	st := &ResumeState{Completed: map[string]bool{}}
	m := durable.LoadManifestFS(opts.Durable.FS, path)
	if m != nil {
		if !m.Shard.Equal(opts.Shard) {
			return nil, nil, fmt.Errorf("dataset: resuming %s: manifest shard %+v does not match %+v", path, m.Shard, opts.Shard)
		}
		ck = m.Checkpoint()
		st.WatermarkRank = m.WatermarkRank
	}

	// Salvage the tail past the checkpoint.
	rc, cr, err := durable.OpenTail(path, ck.Offset)
	if err != nil {
		return nil, nil, err
	}
	var groups []*tailGroup
	scan, err := durable.ScanRecords(rc, func(payload []byte) error {
		var v Visit
		if uerr := DecodeVisit(payload, &v); uerr != nil {
			return errCorrupt
		}
		g := (*tailGroup)(nil)
		if len(groups) > 0 {
			g = groups[len(groups)-1]
		}
		if g == nil || g.site != v.Site {
			g = &tailGroup{site: v.Site, rank: v.Rank}
			groups = append(groups, g)
		}
		g.payloads = append(g.payloads, append([]byte(nil), payload...))
		g.visits = append(g.visits, v)
		g.complete = groupComplete(&v)
		return nil
	})
	st.BytesRead = cr.BytesRead()
	rc.Close()
	if err != nil && !errors.Is(err, errCorrupt) {
		return nil, nil, err
	}
	corrupt := errors.Is(err, errCorrupt)
	st.Truncated = scan.Truncated || corrupt
	st.TruncatedBytes = scan.TruncatedBytes

	// Keep complete groups up to the first incomplete one: emission is
	// rank-ordered and group-atomic, so anything after a torn group
	// cannot be trusted to be contiguous.
	var kept []*tailGroup
	for _, g := range groups {
		if !g.complete {
			break
		}
		kept = append(kept, g)
	}
	for _, g := range kept {
		st.RecordsKept += int64(len(g.payloads))
		st.Completed[g.site] = true
	}
	st.RecordsDropped = scan.Records - st.RecordsKept

	// Repair in place: truncate to the committed checkpoint and
	// re-append exactly the kept groups as a fresh committed state.
	j, err := durable.OpenAt(path, ck, opts.Durable)
	if err != nil {
		return nil, nil, err
	}
	w := &JournalWriter{
		j: j, path: path, opts: opts,
		fidx:          &durable.FrameIndex{},
		watermarkRank: st.WatermarkRank,
		sites:         0,
		done:          map[int]string{},
	}
	if m != nil {
		w.watermarkSite = m.WatermarkSite
		w.sites = m.Sites
	}
	// The sparse frame index survives a resume only up to the rewound
	// checkpoint; everything past it described bytes the repair just
	// truncated. A missing or invalid index simply restarts empty — it
	// is an accelerator, not an authority.
	if fi := durable.LoadFrameIndexFS(opts.Durable.FS, path); fi != nil {
		fi.Truncate(ck.Offset)
		w.fidx = fi
	}
	for _, g := range kept {
		for i, p := range g.payloads {
			if err := j.Append(p); err != nil {
				j.Close()
				return nil, nil, err
			}
			if opts.Observer != nil {
				opts.Observer.ObserveVisit(&g.visits[i])
			}
		}
		w.noteCompleted(g.rank, g.site)
	}
	if err := w.checkpoint(); err != nil {
		j.Close()
		return nil, nil, err
	}

	reg := opts.Metrics
	reg.Add("dataset_records_salvaged_total", st.RecordsKept)
	reg.Add("dataset_records_dropped_total", st.RecordsDropped)
	reg.Add("dataset_truncated_bytes_total", st.TruncatedBytes)
	if st.Truncated {
		reg.Add("dataset_torn_tails_total", 1)
	}
	return w, st, nil
}

// Write appends one visit record. Durable at the next checkpoint.
func (w *JournalWriter) Write(v *Visit) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("dataset: encoding visit %q: %w", v.Site, err)
	}
	if err := w.j.Append(payload); err != nil {
		return err
	}
	if w.opts.Observer != nil {
		w.opts.Observer.ObserveVisit(v)
	}
	return nil
}

// Count returns the total record count, including records salvaged or
// committed before this run.
func (w *JournalWriter) Count() int { return int(w.j.Records()) }

// SiteCompleted records that a site's full record group has been
// written, advances the watermark, and checkpoints every
// CheckpointEvery completed sites.
func (w *JournalWriter) SiteCompleted(rank int, site string) error {
	w.noteCompleted(rank, site)
	w.sinceCkpt++
	if w.sinceCkpt >= w.opts.every() {
		return w.checkpoint()
	}
	return nil
}

func (w *JournalWriter) noteCompleted(rank int, site string) {
	w.sites++
	w.done[rank] = site
	skip := w.opts.Skip
	for {
		if s, ok := w.done[w.watermarkRank+1]; ok {
			w.watermarkRank++
			w.watermarkSite = s
			delete(w.done, w.watermarkRank)
			continue
		}
		if skip != nil && skip(w.watermarkRank+1) {
			w.watermarkRank++
			continue
		}
		return
	}
}

// checkpoint commits buffered records and atomically rewrites the
// manifest to the new committed state.
func (w *JournalWriter) checkpoint() error {
	ck, err := w.j.Sync()
	if err != nil {
		return err
	}
	m := &durable.Manifest{
		Offset:        ck.Offset,
		Records:       ck.Records,
		PayloadCRC:    ck.PayloadCRC,
		WatermarkRank: w.watermarkRank,
		WatermarkSite: w.watermarkSite,
		Sites:         w.sites,
		Shard:         w.opts.Shard,
	}
	// The manifest is authoritative: transient faults get a bounded,
	// virtual-clock retry (each attempt restages through a fresh temp
	// file), and a persistent failure aborts the campaign — the previous
	// manifest is intact, so the last checkpoint still resumes.
	if err := w.opts.Durable.Retry.Do("manifest", func() error {
		return m.StoreFS(w.opts.Durable.FS, w.path)
	}); err != nil {
		return err
	}
	// The frame index is written after the manifest, so it only ever
	// lags the committed state — a crash between the two leaves an index
	// missing the newest boundary, never one pointing past the commit.
	// It is an accelerator: a store failure degrades readers to a full
	// scan, it never fails the checkpoint.
	w.fidx.Append(durable.FrameEntry{Offset: ck.Offset, Records: ck.Records, Rank: w.watermarkRank})
	if err := w.opts.Durable.Retry.Do("frame-index", func() error {
		return w.fidx.StoreFS(w.opts.Durable.FS, w.path)
	}); err != nil {
		w.opts.Metrics.Add("storage_accelerator_write_failures_total", 1, "artifact", "frame-index")
	}
	if w.opts.Observer != nil {
		if err := w.opts.Observer.ObserveCheckpoint(ck); err != nil {
			return err
		}
	}
	w.sinceCkpt = 0
	w.opts.Metrics.Add("dataset_checkpoints_written_total", 1)
	return nil
}

// Flush writes a final checkpoint; the crawler calls it once at the end
// of a campaign (or of a drain).
func (w *JournalWriter) Flush() error { return w.checkpoint() }

// Abort closes the journal without flushing or checkpointing — what a
// kill -9 leaves behind. Test harnesses use it to stand in for process
// death after an injected crash.
func (w *JournalWriter) Abort() error { return w.j.Abort() }

// Close flushes a final checkpoint and closes the journal file.
func (w *JournalWriter) Close() error {
	if err := w.checkpoint(); err != nil {
		w.j.Close()
		return err
	}
	return w.j.Close()
}
