package analysis

import (
	"math"
	"sort"
	"strings"

	"github.com/netmeasure/topicscope/internal/dataset"
	"github.com/netmeasure/topicscope/internal/stats"
)

// EnabledRate is one bar of Figure 3: how often a CP invokes the Topics
// API over the sites it is present on, with the nearest canonical A/B
// fraction.
type EnabledRate struct {
	CP      string
	Present int
	Called  int
	Rate    float64
	// Cluster is the nearest of the fractions the paper highlights
	// (25/33/50/66/75/100%), or -1 when no cluster is within tolerance.
	Cluster float64
}

// Figure3 reproduces Figure 3: per-CP enabled percentages, which
// cluster around predetermined fractions — the signature of A/B tests.
type Figure3 struct {
	Rows []EnabledRate
	// MinPresence filtered out CPs seen on too few sites.
	MinPresence int
}

// abClusters are the fractions the paper highlights on the y-axis.
var abClusters = []float64{0.25, 0.33, 0.50, 0.66, 0.75, 1.00}

// clusterTolerance is how close a rate must be to count as clustered.
const clusterTolerance = 0.06

// NearestCluster maps a rate to the closest canonical A/B fraction, or
// -1 if none is within tolerance.
func NearestCluster(rate float64) float64 {
	best, dist := -1.0, clusterTolerance
	for _, c := range abClusters {
		if d := math.Abs(rate - c); d <= dist {
			best, dist = c, d
		}
	}
	return best
}

// ComputeFigure3 runs experiment F3 over Allowed & Attested callers
// present on at least minPresence D_AA sites; topN bounds the output
// (paper: 15), 0 means all.
func ComputeFigure3(in *Input, minPresence, topN int) *Figure3 {
	if minPresence <= 0 {
		minPresence = 20
	}
	idx := in.Index()
	present := idx.present[dataset.AfterAccept]
	called := idx.called[dataset.AfterAccept]

	f := &Figure3{MinPresence: minPresence}
	// The subjects are the Allowed & Attested callers seen in D_AA — the
	// keys of the After-Accept caller map, filtered by classification.
	for cp := range called {
		if facts := idx.callers[cp]; !facts.allowed || !facts.attested {
			continue
		}
		sites := present[cp]
		if len(sites) < minPresence {
			continue
		}
		row := EnabledRate{CP: cp, Present: len(sites)}
		for site := range called[cp] {
			if sites[site] {
				row.Called++
			}
		}
		row.Rate = stats.Share(row.Called, row.Present)
		row.Cluster = NearestCluster(row.Rate)
		f.Rows = append(f.Rows, row)
	}
	sortFigure3(f, topN)
	return f
}

// ClusteredShare is the fraction of CPs whose rate lies near a canonical
// A/B fraction — the paper's "percentages that look predetermined".
func (f *Figure3) ClusteredShare() float64 {
	if len(f.Rows) == 0 {
		return 0
	}
	n := 0
	for _, r := range f.Rows {
		if r.Cluster >= 0 {
			n++
		}
	}
	return stats.Share(n, len(f.Rows))
}

// Render prints the figure data.
func (f *Figure3) Render() string {
	var b strings.Builder
	t := &stats.Table{
		Title:   "F3 — Topics enabled percentage per CP (Figure 3, D_AA, Allowed & Attested)",
		Headers: []string{"calling party", "present", "called", "enabled", "A/B cluster"},
	}
	for _, r := range f.Rows {
		cluster := "-"
		if r.Cluster >= 0 {
			cluster = stats.Pct(r.Cluster)
		}
		t.AddRow(r.CP, r.Present, r.Called, stats.Pct(r.Rate), cluster)
	}
	b.WriteString(t.Render())
	b.WriteString("clustered on canonical fractions: " + stats.Pct(f.ClusteredShare()) + "\n")
	return b.String()
}

// sortFigure3 orders rows with a total order (rate desc, CP asc) and
// truncates to topN, as sortFigure2 does.
func sortFigure3(f *Figure3, topN int) {
	sort.Slice(f.Rows, func(i, j int) bool {
		if f.Rows[i].Rate != f.Rows[j].Rate {
			return f.Rows[i].Rate > f.Rows[j].Rate
		}
		return f.Rows[i].CP < f.Rows[j].CP
	})
	if topN > 0 && len(f.Rows) > topN {
		f.Rows = f.Rows[:topN]
	}
}
