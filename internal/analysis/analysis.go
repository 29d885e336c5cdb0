// Package analysis computes every table and figure of the paper from a
// crawl dataset: Table 1 (allow-list/attestation status), Figure 2 (CP
// presence vs. calls), Figure 3 (A/B enabled rates), the §4 anomalous
// usage statistics, Figure 5 (questionable Before-Accept calls),
// Figure 6 (TLD geography), Figure 7 (CMP conditional probabilities),
// the §2.4 dataset overview and the §3 enrolment timeline.
//
// The pipeline is dataset-driven: everything derives from the visit
// records, the reference allow-list, and the well-known attestation
// checks — never from generator internals — so it would work unchanged
// on a dataset captured from the real web.
//
// Every Compute* function answers from a shared analysis Index (see
// index.go) that aggregates the dataset in one parallel sharded pass;
// the first query builds it, later ones reuse it. The pre-index
// full-scan implementations are kept in legacy_test.go as the parity
// reference.
package analysis

import (
	"sync"

	"github.com/netmeasure/topicscope/internal/attestation"
	"github.com/netmeasure/topicscope/internal/dataset"
	"github.com/netmeasure/topicscope/internal/durable"
	"github.com/netmeasure/topicscope/internal/obs"
)

// Input bundles what the analyses need.
type Input struct {
	// Data is the crawl dataset (both phases).
	Data *dataset.Dataset
	// Allowlist is the healthy browser allow-list (the paper's June 6th
	// 2024 privacy-sandbox-attestations.dat).
	Allowlist *attestation.Allowlist
	// Attestations indexes well-known attestation checks by domain.
	Attestations map[string]dataset.AttestationRecord
	// Metrics, when set, counts index and report activity in the shared
	// observability registry. Nil disables counting.
	Metrics *obs.Registry
	// FS, when set, routes live-snapshot reads and writes through an
	// explicit filesystem seam (chaos fault injection); nil means the
	// real OS.
	FS durable.FS

	indexOnce sync.Once
	index     *Index
}

// Index returns the input's analysis index, building it on first use.
// Safe for concurrent callers; the dataset must not be mutated after the
// first call.
func (in *Input) Index() *Index {
	in.indexOnce.Do(func() { in.index = BuildIndex(in) })
	return in.index
}
