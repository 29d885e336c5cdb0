package analysis

import (
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"

	"github.com/netmeasure/topicscope/internal/etld"
)

// TestIndexShardMergeProperty is the property-test face of the merge
// invariant: TestIndexWorkerDeterminism checks the contiguous stripes
// BuildIndex actually uses, this test checks that ANY partition of the
// visits into shards — random assignment, random shard count, shards
// filled concurrently, merged in random order — produces an index deeply
// equal to the sequential single-shard build. Run under -race (the
// package is in `make race-core`) it also proves shard fills never
// share mutable state.
func TestIndexShardMergeProperty(t *testing.T) {
	in := input(t)
	visits := in.Data.Visits
	ref := sequentialIndex(in)

	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0x70b1c5))
		k := 1 + rng.IntN(8)

		// Random partition: each visit lands in an arbitrary shard, not a
		// contiguous stripe.
		assign := make([][]int, k)
		for i := range visits {
			w := rng.IntN(k)
			assign[w] = append(assign[w], i)
		}

		cache := etld.NewCache()
		shards := make([]*LiveIndex, k)
		for i := range shards {
			shards[i] = newLiveIndex(in, cache)
		}
		var wg sync.WaitGroup
		for w := 0; w < k; w++ {
			wg.Add(1)
			go func(s *LiveIndex, idxs []int) {
				defer wg.Done()
				for _, i := range idxs {
					s.Fold(&visits[i])
				}
			}(shards[w], assign[w])
		}
		wg.Wait()

		// Random merge order.
		order := rng.Perm(k)
		agg := shards[order[0]]
		for _, j := range order[1:] {
			agg.Absorb(shards[j])
		}
		idx := agg.finalize(in)

		for _, cmp := range []struct {
			name     string
			got, ref any
		}{
			{"called", idx.called, ref.called},
			{"present", idx.present, ref.present},
			{"callers", idx.callers, ref.callers},
			{"aaAllowlist", idx.aaAllowlist, ref.aaAllowlist},
			{"overview", idx.overview, ref.overview},
			{"reliability", idx.reliability, ref.reliability},
			{"table1", idx.table1, ref.table1},
			{"anomaly", idx.anomaly, ref.anomaly},
			{"figure7", idx.figure7, ref.figure7},
			{"callTypes", idx.callTypes, ref.callTypes},
			{"languages", idx.languages, ref.languages},
			{"enrolment", idx.enrolment, ref.enrolment},
			{"trajectory", idx.trajectory, ref.trajectory},
		} {
			if !reflect.DeepEqual(cmp.got, cmp.ref) {
				t.Fatalf("trial %d (shards=%d): %s diverges from sequential build\ngot: %+v\nref: %+v",
					trial, k, cmp.name, cmp.got, cmp.ref)
			}
		}
	}
}

// sequentialIndex builds the reference index with one shard, no
// concurrency.
func sequentialIndex(in *Input) *Index {
	cache := etld.NewCache()
	s := newLiveIndex(in, cache)
	for i := range in.Data.Visits {
		s.Fold(&in.Data.Visits[i])
	}
	return s.finalize(in)
}
