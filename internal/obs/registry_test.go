package obs

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// event is one registry update replayed during the merge property test.
type event struct {
	hist  bool
	name  string
	kv    []string
	delta int64
	d     time.Duration
}

func randomEvents(rng *rand.Rand, n int) []event {
	names := []string{"visits_total", "calls_total", "retries_total", "stage_latency"}
	outcomes := []string{"ok", "partial", "error"}
	evs := make([]event, n)
	for i := range evs {
		name := names[rng.Intn(len(names))]
		kv := []string{"outcome", outcomes[rng.Intn(len(outcomes))]}
		if rng.Intn(2) == 0 {
			kv = append(kv, "phase", "before_accept")
		}
		if name == "stage_latency" {
			evs[i] = event{hist: true, name: name, kv: kv, d: time.Duration(rng.Intn(1 << 22))}
		} else {
			evs[i] = event{name: name, kv: kv, delta: int64(rng.Intn(5))}
		}
	}
	return evs
}

func apply(r *Registry, evs []event) {
	for _, e := range evs {
		if e.hist {
			r.Observe(e.name, e.d, e.kv...)
		} else {
			r.Add(e.name, e.delta, e.kv...)
		}
	}
}

// TestRegistryMergeProperty is the obs half of the shard-merge
// invariant: any random split of the same event stream across shard
// registries, merged in any order, must snapshot identically to a
// single registry fed sequentially. Run under -race via make race-core.
func TestRegistryMergeProperty(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		evs := randomEvents(rng, 500)

		sequential := NewRegistry()
		apply(sequential, evs)
		want := sequential.Snapshot()

		nShards := 1 + rng.Intn(7)
		shards := make([]*Registry, nShards)
		buckets := make([][]event, nShards)
		for i := range shards {
			shards[i] = NewRegistry()
		}
		for _, e := range evs {
			k := rng.Intn(nShards)
			buckets[k] = append(buckets[k], e)
		}
		var wg sync.WaitGroup
		for i := range shards {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				apply(shards[i], buckets[i])
			}(i)
		}
		wg.Wait()

		// Merge in a shuffled order to exercise commutativity too.
		order := rng.Perm(nShards)
		merged := NewRegistry()
		for _, i := range order {
			merged.Merge(shards[i])
		}
		if got := merged.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: %d-shard merge (order %v) diverges from sequential:\ngot  %+v\nwant %+v",
				trial, nShards, order, got, want)
		}
	}
}

// TestRegistryConcurrentUpdates hammers one registry from many
// goroutines; totals must be exact. Run under -race.
func TestRegistryConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Add("hits", 1)
				r.Observe("lat", time.Millisecond)
			}
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	if got := snap.Counter("hits"); got != workers*per {
		t.Errorf("hits = %d, want %d", got, workers*per)
	}
	if len(snap.Histograms) != 1 || snap.Histograms[0].Count != workers*per {
		t.Errorf("histogram snapshot = %+v", snap.Histograms)
	}
}

// TestMetricKeyMatchesFmtQuote pins the key rendering to its original
// fmt.Fprintf("%s=%q") form for label values that need escaping, so
// /__metrics output and snapshot names stay byte-identical.
func TestMetricKeyMatchesFmtQuote(t *testing.T) {
	values := []string{
		"", "fetch", `say "hi"`, `back\slash`, "tab\there\nnewline",
		"über-straße", "日本語", "emoji 🙂", "\x00\x7f", "bad utf8 \xff",
	}
	for _, v := range values {
		want := "m{" + fmt.Sprintf("%s=%q", "b", "x") + "," + fmt.Sprintf("%s=%q", "stage", v) + "}"
		if got := MetricKey("m", "stage", v, "b", "x"); got != want {
			t.Errorf("MetricKey(stage=%q) = %s, want %s", v, got, want)
		}
	}
}
