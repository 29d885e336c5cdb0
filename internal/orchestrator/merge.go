package orchestrator

import (
	"encoding/json"
	"fmt"
	"os"

	"github.com/netmeasure/topicscope/internal/durable"
	"github.com/netmeasure/topicscope/internal/obs"
)

// MergeStats reports what a shard merge assembled.
type MergeStats struct {
	// Shards is how many shard journals were merged.
	Shards int
	// Records is the merged record count; Sites the merged
	// completed-site count.
	Records int64
	Sites   int
	// ShardRecords is each shard's record count, in shard order.
	ShardRecords []int64
	// PayloadCRC is the running CRC-32C over every merged payload — the
	// same content hash a single-process journal's manifest would carry.
	PayloadCRC uint32
	// WatermarkRank/WatermarkSite come from the final shard's manifest.
	WatermarkRank int
	WatermarkSite string
}

// mergeProbe is the minimal record shape the merge validator decodes:
// just enough to check rank contiguity without knowing the full visit
// schema.
type mergeProbe struct {
	Site string `json:"site"`
	Rank int    `json:"rank"`
}

// MergeJournals concatenates rank-contiguous shard journals into one
// dataset journal at out, re-framing every record through
// internal/durable. Because a journal's canonical byte stream is the
// pure concatenation of its framed records — checkpoint state lives in
// the manifest, and gzip member boundaries vanish under
// durable.CanonicalBytes — the merged dataset is byte-identical to the
// journal a single-process crawl of the same campaign writes.
//
// Each shard is validated against its checkpoint manifest before a
// byte is written: the manifest must exist, carry the expected shard
// geometry, be complete (WatermarkRank == ToRank), and the journal's
// records must match the manifest's count and payload CRC; record
// ranks must stay inside the shard's window and never decrease. Any
// violation aborts the merge with no partial output (the output is
// written atomically via the journal-create path only after all
// inputs validate... see note below: validation happens per shard
// before its records are appended, and a failed merge removes the
// partial output).
func MergeJournals(out string, shardPaths []string, reg *obs.Registry) (*MergeStats, error) {
	if len(shardPaths) == 0 {
		return nil, fmt.Errorf("orchestrator: merging zero shards")
	}

	st := &MergeStats{Shards: len(shardPaths)}
	merged, err := durable.Create(out, durable.Options{})
	if err != nil {
		return nil, err
	}
	durable.RemoveManifest(out)
	fail := func(err error) (*MergeStats, error) {
		merged.Abort()
		os.Remove(out)
		return nil, err
	}

	prevRank := 0
	for i, path := range shardPaths {
		m := durable.LoadManifest(path)
		if m == nil {
			return fail(fmt.Errorf("orchestrator: shard %d (%s): no usable checkpoint manifest", i, path))
		}
		s := m.Shard
		if s == nil {
			return fail(fmt.Errorf("orchestrator: shard %d (%s): manifest carries no shard geometry", i, path))
		}
		if s.Index != i || s.Count != len(shardPaths) {
			return fail(fmt.Errorf("orchestrator: shard %d (%s): manifest says shard %d/%d", i, path, s.Index, s.Count))
		}
		if s.FromRank != prevRank+1 {
			return fail(fmt.Errorf("orchestrator: shard %d (%s): ranks start at %d, want %d (gap or overlap)", i, path, s.FromRank, prevRank+1))
		}
		if m.WatermarkRank != s.ToRank {
			return fail(fmt.Errorf("orchestrator: shard %d (%s): incomplete — watermark %d of %d; resume the worker first", i, path, m.WatermarkRank, s.ToRank))
		}

		// Stream the shard's committed prefix, validating rank bounds
		// and re-framing into the merged journal.
		rc, _, err := durable.OpenTail(path, 0)
		if err != nil {
			return fail(err)
		}
		var shardCRC uint32
		var shardRecords int64
		lastRank := prevRank
		scanErr := func() error {
			defer rc.Close()
			_, err := durable.ScanRecords(rc, func(payload []byte) error {
				if shardRecords >= m.Records {
					// Past the committed prefix: uncommitted tail records
					// (a worker died after its last checkpoint without
					// being restarted). The merge only trusts committed
					// state.
					return fmt.Errorf("orchestrator: shard %d (%s): %d records beyond the committed %d; resume the worker first", i, path, shardRecords+1, m.Records)
				}
				var probe mergeProbe
				if err := json.Unmarshal(payload, &probe); err != nil {
					return fmt.Errorf("orchestrator: shard %d (%s): undecodable record %d: %w", i, path, shardRecords, err)
				}
				if probe.Rank < s.FromRank || probe.Rank > s.ToRank {
					return fmt.Errorf("orchestrator: shard %d (%s): record for rank %d outside window [%d,%d]", i, path, probe.Rank, s.FromRank, s.ToRank)
				}
				if probe.Rank < lastRank {
					return fmt.Errorf("orchestrator: shard %d (%s): rank %d after %d — journal not rank-ordered", i, path, probe.Rank, lastRank)
				}
				lastRank = probe.Rank
				shardCRC = durable.PayloadCRC(shardCRC, payload)
				shardRecords++
				return merged.Append(payload)
			})
			return err
		}()
		if scanErr != nil {
			return fail(scanErr)
		}
		if shardRecords != m.Records {
			return fail(fmt.Errorf("orchestrator: shard %d (%s): %d records on disk, manifest committed %d", i, path, shardRecords, m.Records))
		}
		if shardCRC != m.PayloadCRC {
			return fail(fmt.Errorf("orchestrator: shard %d (%s): payload CRC %08x, manifest %08x", i, path, shardCRC, m.PayloadCRC))
		}

		st.Records += shardRecords
		st.ShardRecords = append(st.ShardRecords, shardRecords)
		st.Sites += m.Sites
		st.WatermarkRank = m.WatermarkRank
		st.WatermarkSite = m.WatermarkSite
		prevRank = s.ToRank
		reg.Add("orchestrator_shards_merged_total", 1)
		reg.Add("orchestrator_records_merged_total", shardRecords)
	}

	ck, err := merged.Sync()
	if err != nil {
		return fail(err)
	}
	if err := merged.Close(); err != nil {
		return fail(err)
	}
	st.PayloadCRC = ck.PayloadCRC

	// The merged journal gets a plain (shard-free) manifest, as if a
	// single process had written it: resumable, analyzable, done.
	manifest := &durable.Manifest{
		Offset:        ck.Offset,
		Records:       ck.Records,
		PayloadCRC:    ck.PayloadCRC,
		WatermarkRank: st.WatermarkRank,
		WatermarkSite: st.WatermarkSite,
		Sites:         st.Sites,
	}
	if err := manifest.Store(out); err != nil {
		return nil, err
	}
	return st, nil
}
