package obs

import (
	"sort"
	"strconv"
	"sync"
	"time"
)

// histBuckets is the number of exponential latency buckets: bucket i
// holds observations with d < 1ms·2^i, the last bucket is unbounded.
// 27 finite bounds reach ≈18h of virtual time, far beyond any stage.
const histBuckets = 28

// histogram is a fixed-bucket latency distribution. Every field merges
// commutatively (sums and a max), like the analysis index shards.
type histogram struct {
	count   int64
	sumNS   int64
	maxNS   int64
	buckets [histBuckets]int64
}

func bucketIndex(d time.Duration) int {
	bound := time.Millisecond
	for i := 0; i < histBuckets-1; i++ {
		if d < bound {
			return i
		}
		bound <<= 1
	}
	return histBuckets - 1
}

// bucketBound is the exclusive upper bound of finite bucket i.
func bucketBound(i int) time.Duration { return time.Millisecond << i }

func (h *histogram) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.count++
	h.sumNS += int64(d)
	if int64(d) > h.maxNS {
		h.maxNS = int64(d)
	}
	h.buckets[bucketIndex(d)]++
}

func (h *histogram) merge(o *histogram) {
	h.count += o.count
	h.sumNS += o.sumNS
	if o.maxNS > h.maxNS {
		h.maxNS = o.maxNS
	}
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
}

// quantile estimates the q-quantile (0 < q < 1) as the upper bound of
// the bucket where the cumulative count crosses q, clamped to the
// maximum observation. Deterministic by construction.
func (h *histogram) quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	target := int64(q * float64(h.count))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, n := range h.buckets {
		cum += n
		if cum >= target {
			bound := int64(bucketBound(i))
			if bound > h.maxNS || i == histBuckets-1 {
				bound = h.maxNS
			}
			return time.Duration(bound)
		}
	}
	return time.Duration(h.maxNS)
}

// Registry holds a campaign's counters and latency histograms, keyed by
// metric name plus rendered label set. It is safe for concurrent use;
// because every update is an addition (or max), the final state is
// independent of interleaving — the same commutativity argument as the
// analysis index's shard merge, proven by TestRegistryMergeProperty.
type Registry struct {
	mu       sync.Mutex
	counters map[string]int64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]int64),
		hists:    make(map[string]*Histogram),
	}
}

// Histogram is a stable handle to one named histogram inside a
// registry. Hot paths resolve the handle once (paying the metricKey
// render and registry-map lookup a single time) and then Observe
// through it with only a per-histogram lock — the crawler records
// per-stage latencies this way without contending on the registry
// mutex.
type Histogram struct {
	mu sync.Mutex
	h  histogram
}

// Observe records one duration. Nil-safe, like Registry.Observe.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.h.observe(d)
	h.mu.Unlock()
}

// snapshotLocked copies the underlying distribution under the
// histogram's own lock.
func (h *Histogram) snapshot() histogram {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h
}

// Hist returns the handle for a named histogram, creating it if absent.
// Returns nil (a no-op handle) on a nil registry.
func (r *Registry) Hist(name string, kv ...string) *Histogram {
	if r == nil {
		return nil
	}
	key := metricKey(name, kv)
	r.mu.Lock()
	h := r.hists[key]
	if h == nil {
		h = &Histogram{}
		r.hists[key] = h
	}
	r.mu.Unlock()
	return h
}

// metricKey renders name plus key/value label pairs in sorted-by-key
// order, the canonical form every map is keyed by:
// visits_total{outcome="ok",phase="before_accept"}.
func metricKey(name string, kv []string) string {
	if len(kv) == 0 {
		return name
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	b := make([]byte, 0, 64)
	b = append(b, name...)
	b = append(b, '{')
	for i, p := range pairs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, p.k...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, p.v)
	}
	b = append(b, '}')
	return string(b)
}

// Add increments a counter by delta. kv are alternating label
// key/value pairs.
func (r *Registry) Add(name string, delta int64, kv ...string) {
	if r == nil {
		return
	}
	key := metricKey(name, kv)
	r.mu.Lock()
	r.counters[key] += delta
	r.mu.Unlock()
}

// Observe records one duration into a histogram.
func (r *Registry) Observe(name string, d time.Duration, kv ...string) {
	r.Hist(name, kv...).Observe(d)
}

// Merge folds another registry into r. Addition and max are commutative
// and associative, so any merge order yields the same state.
func (r *Registry) Merge(o *Registry) {
	if r == nil || o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range o.counters {
		r.counters[k] += v
	}
	for k, h := range o.hists {
		dst := r.hists[k]
		if dst == nil {
			dst = &Histogram{}
			r.hists[k] = dst
		}
		src := h.snapshot()
		dst.mu.Lock()
		dst.h.merge(&src)
		dst.mu.Unlock()
	}
}

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	// Name is the canonical metric key, labels included.
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramValue is one histogram in a snapshot, with decile estimates
// (P[0] = p10 … P[8] = p90) and serving-path tail quantiles (p50, p99,
// p999) in nanoseconds.
type HistogramValue struct {
	Name    string   `json:"name"`
	Count   int64    `json:"count"`
	SumNS   int64    `json:"sumNs"`
	MaxNS   int64    `json:"maxNs"`
	P50NS   int64    `json:"p50Ns"`
	P99NS   int64    `json:"p99Ns"`
	P999NS  int64    `json:"p999Ns"`
	Deciles [9]int64 `json:"decilesNs"`
}

// Snapshot is a point-in-time copy of a registry, sorted by metric key
// so rendering it is deterministic.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Histograms []HistogramValue `json:"histograms"`
}

// Counter returns a counter's value from the snapshot (0 if absent).
func (s Snapshot) Counter(name string, kv ...string) int64 {
	key := metricKey(name, kv)
	for _, c := range s.Counters {
		if c.Name == key {
			return c.Value
		}
	}
	return 0
}

// Snapshot copies the registry's state in sorted order.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := Snapshot{}
	for k, v := range r.counters {
		out.Counters = append(out.Counters, CounterValue{Name: k, Value: v})
	}
	sort.Slice(out.Counters, func(i, j int) bool { return out.Counters[i].Name < out.Counters[j].Name })
	for k, hh := range r.hists {
		h := hh.snapshot()
		hv := HistogramValue{
			Name: k, Count: h.count, SumNS: h.sumNS, MaxNS: h.maxNS,
			P50NS:  int64(h.quantile(0.5)),
			P99NS:  int64(h.quantile(0.99)),
			P999NS: int64(h.quantile(0.999)),
		}
		for d := 1; d <= 9; d++ {
			hv.Deciles[d-1] = int64(h.quantile(float64(d) / 10))
		}
		out.Histograms = append(out.Histograms, hv)
	}
	sort.Slice(out.Histograms, func(i, j int) bool { return out.Histograms[i].Name < out.Histograms[j].Name })
	return out
}
