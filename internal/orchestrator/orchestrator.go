// Package orchestrator distributes a measurement campaign across worker
// processes. A coordinator partitions the campaign's site ranks into N
// contiguous shards; each worker crawls its rank window into its own
// crash-safe journal shard (<out>.shard-i) with independent
// checkpoints, and publishes liveness through a status file and the
// /__metrics endpoint. Crashed workers restart from their shard
// checkpoint, O(tail). When every shard completes, MergeJournals
// re-frames the rank-contiguous shards through internal/durable into
// one dataset whose canonical bytes are identical to a single-process
// crawl of the same (world, seed, chaos), and the per-shard analysis
// folds merge commutatively into the same report — the merge-parity
// golden tests pin both. The coordinator decodes no visit: the merge
// copies payloads, and the report reads the shards' folds.
//
// The design leans entirely on invariants the rest of the repo already
// enforces: visits are timed on a virtual clock derived from the global
// site rank (so a shard needs no knowledge of its siblings to produce
// the right timestamps), chaos decisions are pure functions of the
// request (so fault weather doesn't depend on which process issues the
// request), and webworld generation is rank-streamed (so a worker
// materializes only its window of a 500k-site world).
package orchestrator

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/netmeasure/topicscope/internal/durable"
)

// ShardSpec is one contiguous rank window of a partitioned campaign.
type ShardSpec struct {
	// Index is the 0-based shard number; Count the total shards.
	Index int `json:"index"`
	Count int `json:"count"`
	// FromRank/ToRank bound the shard's global site ranks, inclusive.
	FromRank int `json:"from_rank"`
	ToRank   int `json:"to_rank"`
}

// Sites returns the number of ranks the shard covers.
func (s ShardSpec) Sites() int { return s.ToRank - s.FromRank + 1 }

// Info converts the spec to the manifest form stamped into the shard
// journal's checkpoints.
func (s ShardSpec) Info() *durable.ShardInfo {
	return &durable.ShardInfo{Index: s.Index, Count: s.Count, FromRank: s.FromRank, ToRank: s.ToRank}
}

// String renders "i/N ranks [from,to]".
func (s ShardSpec) String() string {
	return fmt.Sprintf("%d/%d ranks [%d,%d]", s.Index, s.Count, s.FromRank, s.ToRank)
}

// ParseShard parses the "i/N" form of the topics-crawl -shard flag
// (0-based index).
func ParseShard(v string) (index, count int, err error) {
	i, n, ok := strings.Cut(v, "/")
	if !ok {
		return 0, 0, fmt.Errorf("orchestrator: shard %q: want i/N", v)
	}
	if _, err := fmt.Sscanf(i+" "+n, "%d %d", &index, &count); err != nil {
		return 0, 0, fmt.Errorf("orchestrator: shard %q: %w", v, err)
	}
	if count < 1 || index < 0 || index >= count {
		return 0, 0, fmt.Errorf("orchestrator: shard %q: index out of range", v)
	}
	return index, count, nil
}

// Partition splits ranks 1..sites into count contiguous near-equal
// windows: the first sites%count shards take one extra rank. Every rank
// lands in exactly one shard, in order, which is what makes the merged
// journal rank-contiguous by construction.
func Partition(sites, count int) ([]ShardSpec, error) {
	if sites < 1 {
		return nil, fmt.Errorf("orchestrator: partitioning %d sites", sites)
	}
	if count < 1 {
		return nil, fmt.Errorf("orchestrator: partitioning into %d shards", count)
	}
	if count > sites {
		count = sites
	}
	specs := make([]ShardSpec, count)
	base, extra := sites/count, sites%count
	next := 1
	for i := range specs {
		n := base
		if i < extra {
			n++
		}
		specs[i] = ShardSpec{Index: i, Count: count, FromRank: next, ToRank: next + n - 1}
		next += n
	}
	return specs, nil
}

// ShardPath derives shard i's journal path from the campaign's output
// path. A .gz output keeps its suffix so the shard journal stays
// compressed: crawl.jsonl.gz → crawl.jsonl.shard-0.gz.
func ShardPath(out string, index int) string {
	suffix := fmt.Sprintf(".shard-%d", index)
	if durable.Compressed(out) {
		return strings.TrimSuffix(out, ".gz") + suffix + ".gz"
	}
	return out + suffix
}

// StatusPath is the worker-status file beside a shard journal.
func StatusPath(shardPath string) string { return shardPath + ".status" }

// Worker states recorded in the status file.
const (
	StateRunning = "running"
	StateDone    = "done"
	StateDrained = "drained"
	StateFailed  = "failed"
)

// Status is the worker's liveness record: which shard it owns, its PID,
// where its live metrics are served, and how far it has come. The
// coordinator and topics-monitor -shards read these to aggregate a
// campaign-wide view without touching the journals.
type Status struct {
	Shard ShardSpec `json:"shard"`
	PID   int       `json:"pid"`
	// MetricsURL is the worker's /__metrics endpoint ("" when the worker
	// serves none).
	MetricsURL string `json:"metrics_url,omitempty"`
	// State is one of the State* constants.
	State string `json:"state"`
	// Error carries the failure detail when State is StateFailed.
	Error string `json:"error,omitempty"`
}

// WriteStatus atomically replaces the shard's status file, so a monitor
// polling it never observes a torn write.
func WriteStatus(shardPath string, st *Status) error {
	return durable.WriteFileAtomic(StatusPath(shardPath), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(st)
	})
}

// ReadStatus loads a shard's status file.
func ReadStatus(shardPath string) (*Status, error) {
	data, err := os.ReadFile(StatusPath(shardPath))
	if err != nil {
		return nil, fmt.Errorf("orchestrator: reading status: %w", err)
	}
	var st Status
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("orchestrator: decoding status %s: %w", StatusPath(shardPath), err)
	}
	return &st, nil
}
