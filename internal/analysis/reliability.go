package analysis

import (
	"strings"

	"github.com/netmeasure/topicscope/internal/chaos"
	"github.com/netmeasure/topicscope/internal/stats"
)

// The paper's §2.4 visit-success figures: 43,405 of the top-50,000
// sites answered, the rest were lost to DNS/connection errors.
const (
	PaperAttempted = 50000
	PaperSucceeded = 43405
)

// Reliability reproduces the crawl's loss shape (experiment D1r):
// attempted/succeeded/failed Before-Accept visits, failures by error
// class, success by rank decile, and the resilience layer's recovery
// counters — paper vs measured.
type Reliability struct {
	Attempted, Succeeded, Failed int
	SuccessRate                  float64
	// ByClass breaks the failures down by taxonomy class.
	ByClass map[string]int
	// Deciles holds success rates per rank decile (1 = top 10% of the
	// list); a real crawl loses more of the tail than of the head.
	Deciles []ReliabilityDecile
	// Retries counts extra attempts the resilience layer spent;
	// PartialVisits counts successful visits degraded by failed
	// subresources; CircuitOpens counts breaker-short-circuited
	// requests.
	Retries, PartialVisits, CircuitOpens int
}

// ReliabilityDecile is one rank-decile row.
type ReliabilityDecile struct {
	Decile, Attempted, Succeeded int
	SuccessRate                  float64
}

// ComputeReliability runs experiment D1r.
func ComputeReliability(in *Input) *Reliability {
	r := in.Index().reliability
	r.ByClass = copyMap(r.ByClass)
	r.Deciles = append([]ReliabilityDecile(nil), r.Deciles...)
	return &r
}

// decileOf maps a 1-based rank onto a 0-based decile index.
func decileOf(rank, maxRank int) int {
	if maxRank <= 0 {
		return 0
	}
	d := (rank - 1) * 10 / maxRank
	if d > 9 {
		d = 9
	}
	if d < 0 {
		d = 0
	}
	return d
}

// Render prints the reliability tables.
func (r *Reliability) Render() string {
	var b strings.Builder
	t := &stats.Table{
		Title:   "D1r — Visit reliability (§2.4)",
		Headers: []string{"metric", "paper", "measured"},
	}
	t.AddRow("sites attempted", PaperAttempted, r.Attempted)
	t.AddRow("sites visited", PaperSucceeded, r.Succeeded)
	t.AddRow("visit-success rate",
		stats.Pct(stats.Share(PaperSucceeded, PaperAttempted)),
		stats.Pct(r.SuccessRate))
	t.AddRow("sites failed", PaperAttempted-PaperSucceeded, r.Failed)
	b.WriteString(t.Render())

	tc := &stats.Table{
		Title:   "failures by error class",
		Headers: []string{"class", "sites", "share of failures"},
	}
	for _, c := range chaos.Classes {
		if n := r.ByClass[string(c)]; n > 0 {
			tc.AddRow(string(c), n, stats.Pct(stats.Share(n, r.Failed)))
		}
	}
	tc.AddRow("retries spent", r.Retries, "")
	tc.AddRow("partial visits", r.PartialVisits, "")
	tc.AddRow("circuit-open requests", r.CircuitOpens, "")
	b.WriteString("\n")
	b.WriteString(tc.Render())

	td := &stats.Table{
		Title:   "success by rank decile",
		Headers: []string{"decile", "attempted", "succeeded", "rate"},
	}
	for _, d := range r.Deciles {
		td.AddRow(d.Decile, d.Attempted, d.Succeeded, stats.Pct(d.SuccessRate))
	}
	b.WriteString("\n")
	b.WriteString(td.Render())
	return b.String()
}
