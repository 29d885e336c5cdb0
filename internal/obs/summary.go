package obs

import (
	"sort"
	"sync"
	"time"
)

// StageSummary aggregates every span that shares a name across a trace
// stream: how often the stage ran and how much stage-clock time it
// consumed. All fields merge commutatively.
type StageSummary struct {
	Count   int64 `json:"count"`
	TotalNS int64 `json:"totalNs"`
	MaxNS   int64 `json:"maxNs"`

	// hist carries the full latency distribution for quantile
	// extraction (p50/p99/p999 in the topics-monitor dashboard). It is
	// deliberately unexported: the serialized StageSummary shape is
	// pinned by the golden pipeline fixture. A summary rebuilt from
	// JSON has an empty hist (Count > 0, hist.count == 0); renderers
	// must treat its quantiles as unknown.
	hist histogram
}

// Mean is the average stage-clock duration.
func (s *StageSummary) Mean() time.Duration {
	if s == nil || s.Count == 0 {
		return 0
	}
	return time.Duration(s.TotalNS / s.Count)
}

// Summary is a Sink that folds a trace stream into campaign-level
// aggregates: visit counts by outcome and per-stage time. It backs both
// Results.TraceSummary and the topics-monitor dashboard.
type Summary struct {
	mu sync.Mutex
	// Traces is the number of trace records seen.
	Traces int `json:"traces"`
	// Sites is the number of distinct visit traces (site != "").
	Sites map[string]int `json:"-"`
	// Visits counts visit traces (excludes campaign-level records).
	Visits int `json:"visits"`
	// Succeeded / Partial / Failed classify visit outcomes.
	Succeeded int `json:"succeeded"`
	Partial   int `json:"partial"`
	Failed    int `json:"failed"`
	// Stages maps span name → aggregate.
	Stages map[string]*StageSummary `json:"stages"`

	// beforeVisits / beforeLoaded are SuccessRate's denominator and
	// numerator; unexported, so the serialized shape (pinned by the
	// golden pipeline fixture) is unchanged.
	beforeVisits, beforeLoaded int
}

// NewSummary returns an empty summary.
func NewSummary() *Summary {
	return &Summary{Sites: make(map[string]int), Stages: make(map[string]*StageSummary)}
}

// WriteTrace folds one trace into the summary. Safe for concurrent use;
// the result is order-independent because every update is an addition
// or max.
func (s *Summary) WriteTrace(v *VisitTrace) error {
	if s == nil || v == nil || v.Root == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Traces++
	if v.Site != "" {
		s.Sites[v.Site]++
		s.Visits++
		switch v.Outcome {
		case "ok":
			s.Succeeded++
		case "partial":
			s.Partial++
		default:
			s.Failed++
		}
		if v.Phase == "before_accept" {
			s.beforeVisits++
			if v.Outcome == "ok" || v.Outcome == "partial" {
				s.beforeLoaded++
			}
		}
	}
	v.Root.Walk(func(sp *Span) {
		st := s.Stages[sp.Name]
		if st == nil {
			st = &StageSummary{}
			s.Stages[sp.Name] = st
		}
		st.Count++
		d := int64(sp.Duration())
		if d < 0 {
			d = 0
		}
		st.TotalNS += d
		if d > st.MaxNS {
			st.MaxNS = d
		}
		st.hist.observe(time.Duration(d))
	})
	return nil
}

// Counts returns the record totals: traces seen, visit traces, and the
// ok/partial/failed outcome split.
func (s *Summary) Counts() (traces, visits, ok, partial, failed int) {
	if s == nil {
		return 0, 0, 0, 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Traces, s.Visits, s.Succeeded, s.Partial, s.Failed
}

// SiteCount is the number of distinct sites seen.
func (s *Summary) SiteCount() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.Sites)
}

// SuccessRate is the fraction of Before-Accept visit traces that loaded
// a page — outcome "ok" or "partial" (a partial visit rendered with some
// failed subresources). After-Accept reloads are left out: every site is
// attempted once Before-Accept, so this matches
// crawler.Stats.Succeeded/Attempted and D1r's success rate, the number
// calibrated to the paper's 86.8%. A summary decoded from JSON carries
// no phase split and reports 0.
func (s *Summary) SuccessRate() float64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.beforeVisits == 0 {
		return 0
	}
	return float64(s.beforeLoaded) / float64(s.beforeVisits)
}

// StageRow is one line of the sorted stage breakdown. The quantiles are
// zero when the summary was rebuilt from serialized form (which does
// not carry bucket data) — render them as unknown, not as 0s.
type StageRow struct {
	Name  string
	Count int64
	Total time.Duration
	Max   time.Duration
	Mean  time.Duration
	P50   time.Duration
	P99   time.Duration
	P999  time.Duration
}

// StageBreakdown returns the stages sorted by total stage-clock time,
// largest first (ties broken by name for determinism).
func (s *Summary) StageBreakdown() []StageRow {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rows := make([]StageRow, 0, len(s.Stages))
	for name, st := range s.Stages {
		rows = append(rows, StageRow{
			Name:  name,
			Count: st.Count,
			Total: time.Duration(st.TotalNS),
			Max:   time.Duration(st.MaxNS),
			Mean:  st.Mean(),
			P50:   st.hist.quantile(0.5),
			P99:   st.hist.quantile(0.99),
			P999:  st.hist.quantile(0.999),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Total != rows[j].Total {
			return rows[i].Total > rows[j].Total
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}
