package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// wireRegistry is the lossless JSON form of a registry. Unlike the
// Prometheus text rendering (whose histograms collapse to count, sum,
// max and decile estimates), the wire form carries every bucket, so a
// registry shipped across a process boundary merges into another with
// exactly the state an in-process Merge would have produced. The
// orchestrator uses it to aggregate per-shard worker metrics.
type wireRegistry struct {
	Version  int                      `json:"version"`
	Counters map[string]int64         `json:"counters"`
	Hists    map[string]wireHistogram `json:"histograms"`
}

type wireHistogram struct {
	Count   int64   `json:"count"`
	SumNS   int64   `json:"sum_ns"`
	MaxNS   int64   `json:"max_ns"`
	Buckets []int64 `json:"buckets"`
}

// wireVersion is the registry wire-format schema version.
const wireVersion = 1

// WriteJSON serializes the registry losslessly. Keys are emitted in
// sorted order (encoding/json sorts map keys), so equal registries
// serialize to equal bytes.
func (r *Registry) WriteJSON(w io.Writer) error {
	wire := wireRegistry{
		Version:  wireVersion,
		Counters: map[string]int64{},
		Hists:    map[string]wireHistogram{},
	}
	if r != nil {
		r.mu.Lock()
		for k, v := range r.counters {
			wire.Counters[k] = v
		}
		for k, hh := range r.hists {
			h := hh.snapshot()
			wire.Hists[k] = wireHistogram{
				Count:   h.count,
				SumNS:   h.sumNS,
				MaxNS:   h.maxNS,
				Buckets: append([]int64(nil), h.buckets[:]...),
			}
		}
		r.mu.Unlock()
	}
	enc := json.NewEncoder(w)
	return enc.Encode(wire)
}

// ReadRegistry deserializes a registry written by WriteJSON. The result
// is a fresh registry; merge it into an aggregate with Merge.
func ReadRegistry(rd io.Reader) (*Registry, error) {
	var wire wireRegistry
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&wire); err != nil {
		return nil, fmt.Errorf("obs: decoding registry: %w", err)
	}
	if wire.Version != wireVersion {
		return nil, fmt.Errorf("obs: unsupported registry wire version %d", wire.Version)
	}
	r := NewRegistry()
	for k, v := range wire.Counters {
		r.counters[k] = v
	}
	for k, wh := range wire.Hists {
		if len(wh.Buckets) > histBuckets {
			return nil, fmt.Errorf("obs: histogram %q has %d buckets, max %d", k, len(wh.Buckets), histBuckets)
		}
		h := &Histogram{h: histogram{count: wh.Count, sumNS: wh.SumNS, maxNS: wh.MaxNS}}
		copy(h.h.buckets[:], wh.Buckets)
		r.hists[k] = h
	}
	return r, nil
}
