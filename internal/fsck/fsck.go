// Package fsck verifies and repairs the on-disk artifacts of a crawl
// campaign: journal frame CRCs, checkpoint manifests, sparse frame
// indexes, live index snapshots, stray atomic-write temps and the
// report JSON — one pass over every shard.
//
// The verifier is built on the same salvage primitives resume uses
// (frame CRCs, gzip member boundaries), extended to *mid-file* damage:
// the sparse frame index's committed boundaries let the scan hop over a
// corrupt region and keep salvaging behind it. Damage is quarantined to
// whole-site-group rank windows — checkpoint boundaries always coincide
// with completed site groups — and the repair plan is executed as
// deterministic rank-window recrawls: every visit record is a pure
// function of its rank (and the campaign seeds), so a recrawled window
// is byte-identical to what the lost region held. The pinned invariant:
// inject faults → fsck → repair yields a dataset and report
// byte-identical to an undamaged run.
//
// Over-quarantine is always safe (a recrawl regenerates the same
// bytes); salvage is only ever trusted record-by-record, after its
// frame CRC and rank contiguity checks pass. A fault-free verify pass
// reads the campaign without writing a single byte.
package fsck

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/netmeasure/topicscope/internal/analysis"
	"github.com/netmeasure/topicscope/internal/dataset"
	"github.com/netmeasure/topicscope/internal/durable"
	"github.com/netmeasure/topicscope/internal/obs"
)

// Finding codes, one per artifact defect class.
const (
	CodeJournalMissing    = "journal-missing"
	CodeCorruptRegion     = "corrupt-region"
	CodeTornTail          = "torn-tail"
	CodeRankGap           = "rank-gap"
	CodeIncomplete        = "incomplete-campaign"
	CodeManifestMissing   = "manifest-missing"
	CodeManifestCorrupt   = "manifest-corrupt"
	CodeManifestStale     = "manifest-stale"
	CodeFrameIndexCorrupt = "frame-index-corrupt"
	CodeSnapshotCorrupt   = "snapshot-corrupt"
	CodeSnapshotStale     = "snapshot-stale"
	CodeStrayTemp         = "stray-temp"
	CodeReportMissing     = "report-missing"
	CodeReportCorrupt     = "report-corrupt"
)

// Finding is one verified defect in one artifact.
type Finding struct {
	// Artifact is the defective file's base name (base, not path: the
	// report is deterministic across working directories).
	Artifact string `json:"artifact"`
	Code     string `json:"code"`
	Detail   string `json:"detail,omitempty"`
}

// Window is an inclusive rank window quarantined for recrawl.
type Window struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// JournalReport is the verify outcome for one journal and its sidecars.
type JournalReport struct {
	// Journal is the journal file's base name.
	Journal string `json:"journal"`
	// FromRank/ToRank bound the ranks the journal must cover.
	FromRank int `json:"from_rank"`
	ToRank   int `json:"to_rank"`
	// Records/Sites count the salvaged (CRC-valid, rank-contiguous)
	// records and site groups.
	Records int64 `json:"records"`
	Sites   int   `json:"sites"`
	// Findings lists every defect; Repair the rank windows whose
	// records must be recrawled. Clean means neither.
	Findings []Finding `json:"findings,omitempty"`
	Repair   []Window  `json:"repair,omitempty"`
	Clean    bool      `json:"clean"`
}

// group is one site's salvaged record group. n counts its records;
// payloads are retained only under VerifyOptions.KeepPayloads.
type group struct {
	site     string
	rank     int
	n        int
	payloads [][]byte
}

// JournalCheck is a verify result plus the salvage state repair needs.
type JournalCheck struct {
	Report JournalReport

	path  string
	shard *durable.ShardInfo
	// groups holds the salvaged site groups in rank order (only when
	// VerifyOptions.KeepPayloads).
	groups []group
	// goodCk is the longest clean committed prefix: repair truncates
	// here and splices salvage + recrawl after it. goodRank/goodSites
	// are the watermark and group count at that boundary.
	goodCk    durable.Checkpoint
	goodRank  int
	goodSites int
	// finalCk is the whole-file state when every byte salvaged cleanly
	// (offset == file size); used to re-derive a stale manifest without
	// touching the journal.
	finalCk   durable.Checkpoint
	finalSite string
	allClean  bool
}

// VerifyOptions configure a single-journal verification.
type VerifyOptions struct {
	// FromRank/ToRank bound the ranks the journal must cover: the shard
	// window, or [1, Sites] for a single-process campaign.
	FromRank int
	ToRank   int
	// Shard, when set, is the expected shard geometry of the journal's
	// manifest.
	Shard *durable.ShardInfo
	// KeepPayloads retains salvaged record payloads in memory for a
	// subsequent Repair.
	KeepPayloads bool
	// Metrics, if set, counts verify findings. Nil is fine.
	Metrics *obs.Registry
}

// groupDone mirrors the resume salvage rule: a site group can no longer
// grow once its last record is an After-Accept visit or a failed /
// rejected Before-Accept one; a drain-aborted record marks it torn.
func groupDone(last *dataset.Visit) bool {
	if last.ErrorClass == "aborted" {
		return false
	}
	if last.Phase == dataset.AfterAccept {
		return true
	}
	return !last.Success || !last.Accepted
}

// errDefect marks the first undecodable or non-contiguous record in a
// segment scan; everything after it is quarantined.
var errDefect = errors.New("fsck: defective record")

// segScan is the salvage outcome of one boundary-delimited segment.
type segScan struct {
	groups  []group
	records int64
	damaged bool
	reason  string
	// open reports a trailing group that could still grow (a normal
	// uncommitted tail when the segment ends the file).
	open bool
}

// scanSegment salvages one self-contained byte segment of a journal.
// Committed boundaries are gzip member boundaries, so each segment
// decodes independently of its neighbours. prevRank is the completed
// watermark at the segment's start; group ranks must continue
// contiguously from it.
func scanSegment(seg []byte, compressed bool, prevRank int) *segScan {
	out := &segScan{}
	var r io.Reader = bytes.NewReader(seg)
	if compressed {
		zr, err := gzip.NewReader(bytes.NewReader(seg))
		if err != nil {
			out.damaged = true
			out.reason = "torn gzip member"
			return out
		}
		zr.Multistream(true)
		r = zr
	}
	type openGroup struct {
		group
		done bool
	}
	var cur *openGroup
	rank := prevRank
	flush := func() {
		if cur != nil && cur.done {
			out.groups = append(out.groups, cur.group)
			out.records += int64(cur.n)
		}
		cur = nil
	}
	scan, err := durable.ScanRecords(r, func(payload []byte) error {
		var v dataset.Visit
		if uerr := dataset.DecodeVisit(payload, &v); uerr != nil {
			out.reason = "undecodable record"
			return errDefect
		}
		if cur == nil || cur.site != v.Site || cur.rank != v.Rank {
			if cur != nil && !cur.done {
				out.reason = "torn site group"
				return errDefect
			}
			flush()
			if v.Rank != rank+1 {
				out.reason = fmt.Sprintf("rank %d after watermark %d", v.Rank, rank)
				return errDefect
			}
			rank = v.Rank
			cur = &openGroup{group: group{site: v.Site, rank: v.Rank}}
		}
		cur.n++
		cur.payloads = append(cur.payloads, append([]byte(nil), payload...))
		cur.done = groupDone(&v)
		return nil
	})
	if err != nil && errors.Is(err, errDefect) {
		out.damaged = true
		flush()
		return out
	}
	if scan.Truncated {
		out.damaged = true
		out.reason = "torn frame"
	}
	if cur != nil && !cur.done {
		out.open = true
		cur = nil
	}
	flush()
	return out
}

// boundaries assembles the trusted committed boundaries of a journal:
// offset 0, the (leniently loaded) frame-index entries, and the
// manifest checkpoint, sorted and deduplicated. Every boundary is only
// as trusted as the segment scan that starts from it — a lying
// boundary fails its segment and is quarantined, never believed.
func journalBoundaries(size int64, fromRank int, m *durable.Manifest, fi *durable.FrameIndex) []durable.FrameEntry {
	byOffset := map[int64]durable.FrameEntry{0: {Offset: 0, Records: 0, Rank: fromRank - 1}}
	if fi != nil {
		for _, e := range fi.Entries {
			if e.Offset > 0 && e.Offset <= size {
				byOffset[e.Offset] = e
			}
		}
	}
	if m != nil && m.Offset > 0 && m.Offset <= size {
		byOffset[m.Offset] = durable.FrameEntry{Offset: m.Offset, Records: m.Records, Rank: m.WatermarkRank}
	}
	entries := make([]durable.FrameEntry, 0, len(byOffset))
	for _, e := range byOffset {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Offset < entries[j].Offset })
	// Drop non-monotonic interlopers (a corrupt-but-decodable index).
	kept := entries[:1]
	for _, e := range entries[1:] {
		last := kept[len(kept)-1]
		if e.Records >= last.Records && e.Rank >= last.Rank {
			kept = append(kept, e)
		}
	}
	return kept
}

// VerifyJournal verifies one journal and its sidecars. It never writes.
func VerifyJournal(path string, opts VerifyOptions) (*JournalCheck, error) {
	if opts.FromRank < 1 {
		opts.FromRank = 1
	}
	if opts.ToRank < opts.FromRank {
		return nil, fmt.Errorf("fsck: verifying %s: rank window [%d,%d] invalid", path, opts.FromRank, opts.ToRank)
	}
	chk := &JournalCheck{
		path:  path,
		shard: opts.Shard,
		Report: JournalReport{
			Journal:  filepath.Base(path),
			FromRank: opts.FromRank,
			ToRank:   opts.ToRank,
		},
		goodRank: opts.FromRank - 1,
	}
	rep := &chk.Report
	note := func(artifact, code, detail string) {
		rep.Findings = append(rep.Findings, Finding{Artifact: artifact, Code: code, Detail: detail})
		opts.Metrics.Add("fsck_findings_total", 1, "code", code)
	}

	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		note(rep.Journal, CodeJournalMissing, "")
		rep.Repair = []Window{{From: opts.FromRank, To: opts.ToRank}}
		return chk, nil
	}
	if err != nil {
		return nil, fmt.Errorf("fsck: reading %s: %w", path, err)
	}

	// Sidecars, leniently: a defective sidecar is a finding, never a
	// verification failure — the journal's own frames are the authority.
	var m *durable.Manifest
	mraw, merr := os.ReadFile(durable.ManifestPath(path))
	switch {
	case errors.Is(merr, os.ErrNotExist):
		note(filepath.Base(durable.ManifestPath(path)), CodeManifestMissing, "")
	case merr != nil:
		return nil, fmt.Errorf("fsck: reading manifest of %s: %w", path, merr)
	default:
		if m, merr = durable.DecodeManifest(mraw); merr != nil {
			note(filepath.Base(durable.ManifestPath(path)), CodeManifestCorrupt, merr.Error())
			m = nil
		} else if m.Journal != rep.Journal || int64(len(raw)) < m.Offset || !m.Shard.Equal(opts.Shard) {
			note(filepath.Base(durable.ManifestPath(path)), CodeManifestCorrupt, "manifest does not describe this journal")
			m = nil
		}
	}
	var fi *durable.FrameIndex
	firaw, fierr := os.ReadFile(durable.FrameIndexPath(path))
	if fierr == nil {
		if fi, fierr = durable.DecodeFrameIndex(firaw); fierr != nil {
			note(filepath.Base(durable.FrameIndexPath(path)), CodeFrameIndexCorrupt, fierr.Error())
			fi = nil
		} else if fi.Journal != rep.Journal {
			note(filepath.Base(durable.FrameIndexPath(path)), CodeFrameIndexCorrupt, "index names a different journal")
			fi = nil
		}
	}

	compressed := durable.Compressed(path)
	bounds := journalBoundaries(int64(len(raw)), opts.FromRank, m, fi)

	// Segment-wise salvage: scan each boundary-delimited segment
	// independently, hopping over damaged regions to keep salvaging at
	// the next committed boundary.
	var (
		windows   []Window
		crc       uint32
		cumRec    int64
		cumSites  int
		prefixOK  = true
		lastRank  = opts.FromRank - 1
		openTail  bool
		anyDamage bool
	)
	for i, b := range bounds {
		segEnd := int64(len(raw))
		var next *durable.FrameEntry
		if i+1 < len(bounds) {
			next = &bounds[i+1]
			segEnd = next.Offset
		}
		if b.Offset >= segEnd {
			continue
		}
		sc := scanSegment(raw[b.Offset:segEnd], compressed, b.Rank)
		for _, g := range sc.groups {
			cumRec += int64(g.n)
			cumSites++
			lastRank = g.rank
			crc = groupCRC(crc, g)
			if !opts.KeepPayloads {
				g.payloads = nil
			}
			chk.groups = append(chk.groups, g)
		}
		segClean := !sc.damaged && !sc.open
		if next != nil {
			// A clean interior segment must land exactly on its next
			// boundary's metadata; anything else quarantines through it.
			if segClean && (cumRec > next.Records || lastRank > next.Rank) {
				segClean = false
				sc.reason = "boundary metadata mismatch"
			}
			if segClean && (cumRec < next.Records || lastRank < next.Rank) {
				segClean = false
				sc.reason = "boundary metadata mismatch"
			}
			if !segClean {
				anyDamage = true
				note(rep.Journal, CodeCorruptRegion,
					fmt.Sprintf("ranks (%d,%d]: %s", lastRank, next.Rank, sc.reason))
				if next.Rank > lastRank {
					windows = append(windows, Window{From: lastRank + 1, To: next.Rank})
				}
				// Resynchronize at the next trusted boundary.
				cumRec = next.Records
				cumSites += countRanks(lastRank, next.Rank)
				lastRank = next.Rank
				prefixOK = false
			}
		} else {
			if sc.damaged {
				anyDamage = true
				note(rep.Journal, CodeTornTail,
					fmt.Sprintf("ranks (%d,%d]: %s", lastRank, opts.ToRank, sc.reason))
			}
			openTail = sc.open || sc.damaged
		}
		if prefixOK && next != nil {
			chk.goodCk = durable.Checkpoint{Offset: next.Offset, Records: cumRec, PayloadCRC: crc}
			chk.goodRank = lastRank
			chk.goodSites = cumSites
		}
	}
	if lastRank < opts.ToRank {
		windows = append(windows, Window{From: lastRank + 1, To: opts.ToRank})
		if !anyDamage && !openTail {
			note(rep.Journal, CodeIncomplete,
				fmt.Sprintf("ranks (%d,%d] never crawled", lastRank, opts.ToRank))
		} else if openTail && !anyDamage {
			note(rep.Journal, CodeTornTail,
				fmt.Sprintf("uncommitted tail past rank %d", lastRank))
		}
	}
	rep.Repair = mergeWindows(windows)
	// Salvage inside a quarantined window is never spliced back — the
	// recrawl regenerates those ranks byte-identically, and dropping
	// them keeps the dedupe rule trivial.
	chk.groups = dropQuarantined(chk.groups, rep.Repair)
	rep.Records, rep.Sites = 0, 0
	for _, g := range chk.groups {
		rep.Records += int64(g.n)
		rep.Sites++
	}

	chk.allClean = len(rep.Repair) == 0 && !anyDamage && !openTail
	if chk.allClean {
		chk.finalCk = durable.Checkpoint{Offset: int64(len(raw)), Records: cumRec, PayloadCRC: crc}
		if n := len(chk.groups); n > 0 {
			chk.finalSite = chk.groups[n-1].site
		}
		if m == nil {
			// Already noted above (missing or corrupt).
		} else if m.Offset != chk.finalCk.Offset || m.Records != chk.finalCk.Records ||
			m.PayloadCRC != chk.finalCk.PayloadCRC || m.WatermarkRank != opts.ToRank {
			note(filepath.Base(durable.ManifestPath(path)), CodeManifestStale,
				fmt.Sprintf("manifest commits %d/%d bytes", m.Offset, chk.finalCk.Offset))
		}
	}

	checkSnapshot(path, m, note)

	rep.Clean = len(rep.Findings) == 0 && len(rep.Repair) == 0
	if !rep.Clean {
		opts.Metrics.Add("fsck_journals_flagged_total", 1)
	}
	return chk, nil
}

// countRanks is the group count of the inclusive rank range (from,to].
func countRanks(from, to int) int {
	if to <= from {
		return 0
	}
	return to - from
}

func groupCRC(crc uint32, g group) uint32 {
	for _, p := range g.payloads {
		crc = durable.PayloadCRC(crc, p)
	}
	return crc
}

// checkSnapshot validates the live index snapshot sidecar: its segment
// log must verify byte for byte (framing, CRCs, an unbroken chain
// naming this journal) and, when the manifest is trusted, end at the
// manifest's exact committed state. It is an accelerator — defects are
// findings that repair fixes by rebuild, and readers degrade gracefully
// meanwhile.
func checkSnapshot(path string, m *durable.Manifest, note func(artifact, code, detail string)) {
	idxPath := analysis.IndexSnapshotPath(path)
	data, err := os.ReadFile(idxPath)
	if err != nil {
		return // absent is fine: it rebuilds from the journal
	}
	records, crc, err := analysis.VerifyIndexSnapshot(data, path)
	if err != nil {
		note(filepath.Base(idxPath), CodeSnapshotCorrupt, err.Error())
		return
	}
	if m != nil && (records != m.Records || crc != m.PayloadCRC) {
		note(filepath.Base(idxPath), CodeSnapshotStale,
			fmt.Sprintf("snapshot folds %d records, manifest commits %d", records, m.Records))
	}
}

// mergeWindows sorts and coalesces overlapping or adjacent windows.
func mergeWindows(ws []Window) []Window {
	if len(ws) == 0 {
		return nil
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].From < ws[j].From })
	out := ws[:1]
	for _, w := range ws[1:] {
		last := &out[len(out)-1]
		if w.From <= last.To+1 {
			if w.To > last.To {
				last.To = w.To
			}
			continue
		}
		out = append(out, w)
	}
	return out
}

func inWindows(rank int, ws []Window) bool {
	for _, w := range ws {
		if rank >= w.From && rank <= w.To {
			return true
		}
	}
	return false
}

func dropQuarantined(gs []group, ws []Window) []group {
	if len(ws) == 0 {
		return gs
	}
	kept := gs[:0]
	for _, g := range gs {
		if !inWindows(g.rank, ws) {
			kept = append(kept, g)
		}
	}
	return kept
}

// StrayTemps lists leftover atomic-write staging files (`.NAME.tmp-*`)
// in a campaign directory, sorted — the residue of a crash or a torn
// rename. They are safe to delete: a temp either never reached its
// rename or was fully superseded by it.
func StrayTemps(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("fsck: listing %s: %w", dir, err)
	}
	var strays []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, ".") && strings.Contains(name, ".tmp-") {
			strays = append(strays, name)
		}
	}
	sort.Strings(strays)
	return strays, nil
}
