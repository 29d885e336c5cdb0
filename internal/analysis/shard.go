package analysis

import (
	"fmt"
	"runtime"
)

// BuildShardIndex folds an in-memory dataset into a mergeable, not yet
// finalized accumulator with the same striped fold BuildIndex runs: what
// a campaign without a journal reports from, where a journaled one reads
// its live fold. Every field merges commutatively (see the Index
// determinism invariant), so partials folded apart combine (Absorb,
// MergeShardIndexes) into the Index one pass over all their records
// would build. The input's Allowlist must be the campaign-global one —
// the allow-list membership bit is folded into the partial and must
// agree across partials.
// Attestations are not consulted until finalize (they do not exist while
// a campaign is still crawling), so the partial needs none.
func BuildShardIndex(in *Input) *LiveIndex {
	return foldStriped(in, runtime.GOMAXPROCS(0))
}

// MergeShardIndexes combines partials — built by BuildShardIndex, folded
// live or restored from a snapshot — into one finalized Index. With one
// part it is the consuming finalize of the one-shot report paths, which
// need no Snapshot clone. in must be the campaign-global input — the
// allow-list and attestation checks — because finalize reads the
// allow-list block and enrolment timeline from it; the visit-derived
// aggregates come entirely from the partials. The merge consumes them:
// the first absorbs the rest and is finalized in place, so none may be
// folded afterwards. Merge order cannot influence the result (Absorb is
// commutative), and the returned Index equals BuildIndex(in) field for
// field — the cross-shard parity test pins that.
func MergeShardIndexes(in *Input, parts ...*LiveIndex) (*Index, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("analysis: merging shard indexes: no partials")
	}
	agg := parts[0]
	for _, p := range parts[1:] {
		agg.Absorb(p)
	}
	in.Metrics.Add("analysis_shard_indexes_merged_total", int64(len(parts)))
	return agg.finalize(in), nil
}

// AdoptIndex installs an externally built index (one assembled by
// MergeShardIndexes) as the input's index, so Compute* calls and Run
// reuse it instead of re-scanning the dataset. It must be called before
// the first Index() query; afterwards it reports false and changes
// nothing.
func (in *Input) AdoptIndex(idx *Index) bool {
	adopted := false
	in.indexOnce.Do(func() {
		in.index = idx
		adopted = true
	})
	return adopted
}
