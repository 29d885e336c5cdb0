package analysis

import (
	"reflect"
	"testing"

	"github.com/netmeasure/topicscope/internal/dataset"
)

// shardInputs splits the fixture dataset into n contiguous chunks, each
// wrapped as a shard-local Input sharing the campaign-global allow-list
// and attestation checks — the shape a distributed campaign produces.
func shardInputs(in *Input, n int) []*Input {
	visits := in.Data.Visits
	stripe := (len(visits) + n - 1) / n
	var parts []*Input
	for lo := 0; lo < len(visits); lo += stripe {
		hi := lo + stripe
		if hi > len(visits) {
			hi = len(visits)
		}
		parts = append(parts, &Input{
			Data:         &dataset.Dataset{Visits: visits[lo:hi]},
			Allowlist:    in.Allowlist,
			Attestations: in.Attestations,
		})
	}
	return parts
}

// TestShardIndexMergeParity is the cross-shard golden test: partials
// built per shard and merged must yield the exact report a single
// full-dataset index build yields, regardless of merge order.
func TestShardIndexMergeParity(t *testing.T) {
	full := input(t)
	want := Run(full)

	for _, n := range []int{1, 2, 4, 7} {
		parts := shardInputs(full, n)
		partials := make([]*LiveIndex, len(parts))
		covered := 0
		for i, p := range parts {
			partials[i] = BuildShardIndex(p)
			covered += partials[i].Visits()
		}
		if covered != len(full.Data.Visits) {
			t.Fatalf("n=%d: partials cover %d visits, want %d", n, covered, len(full.Data.Visits))
		}

		merged := &Input{Data: full.Data, Allowlist: full.Allowlist, Attestations: full.Attestations}
		idx, err := MergeShardIndexes(merged, partials...)
		if err != nil {
			t.Fatal(err)
		}
		if !merged.AdoptIndex(idx) {
			t.Fatalf("n=%d: merged index not adopted", n)
		}
		if got := Run(merged); !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d: merged-shard report diverges from full build", n)
		}
	}

	// Merge order must not matter.
	parts := shardInputs(full, 4)
	fwd := make([]*LiveIndex, len(parts))
	rev := make([]*LiveIndex, len(parts))
	for i, p := range parts {
		fwd[i] = BuildShardIndex(p)
		rev[len(parts)-1-i] = BuildShardIndex(&Input{
			Data: p.Data, Allowlist: p.Allowlist, Attestations: p.Attestations,
		})
	}
	a := &Input{Data: full.Data, Allowlist: full.Allowlist, Attestations: full.Attestations}
	b := &Input{Data: full.Data, Allowlist: full.Allowlist, Attestations: full.Attestations}
	idxA, err := MergeShardIndexes(a, fwd...)
	if err != nil {
		t.Fatal(err)
	}
	idxB, err := MergeShardIndexes(b, rev...)
	if err != nil {
		t.Fatal(err)
	}
	a.AdoptIndex(idxA)
	b.AdoptIndex(idxB)
	if !reflect.DeepEqual(Run(a), Run(b)) {
		t.Error("merge order changed the report")
	}
}

// TestAdoptIndexContract pins AdoptIndex semantics: it wins only before
// the first lazy build, and an empty merge is an error.
func TestAdoptIndexContract(t *testing.T) {
	full := input(t)
	fresh := &Input{Data: full.Data, Allowlist: full.Allowlist, Attestations: full.Attestations}
	fresh.Index()
	if fresh.AdoptIndex(&Index{}) {
		t.Error("AdoptIndex succeeded after the index was already built")
	}
	if _, err := MergeShardIndexes(fresh); err == nil {
		t.Error("merging zero partials did not error")
	}
}
