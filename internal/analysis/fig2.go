package analysis

import (
	"fmt"
	"sort"
	"strings"

	"github.com/netmeasure/topicscope/internal/dataset"
	"github.com/netmeasure/topicscope/internal/stats"
)

// CPPresence is one bar of Figure 2: on how many D_AA websites a calling
// party is present, and on how many of those it actually calls the
// Topics API.
type CPPresence struct {
	CP      string
	Present int
	Called  int
}

// Figure2 reproduces Figure 2: CP presence vs. usage for Allowed &
// Attested parties in D_AA.
type Figure2 struct {
	Rows []CPPresence
}

// ComputeFigure2 runs experiment F2. topN bounds the output (the paper
// plots the top 15 most pervasive CPs); pass 0 for all.
func ComputeFigure2(in *Input, topN int) *Figure2 {
	idx := in.Index()
	present := idx.present[dataset.AfterAccept]
	called := idx.called[dataset.AfterAccept]

	f := &Figure2{}
	// Candidates: every Allowed & Attested domain, whether it calls or
	// not (google-analytics.com and bing.com appear precisely because
	// they never call); rows exist only for candidates embedded
	// somewhere.
	for _, cp := range idx.aaAllowlist {
		sites := present[cp]
		if len(sites) == 0 {
			continue
		}
		row := CPPresence{CP: cp, Present: len(sites)}
		for site := range called[cp] {
			if sites[site] {
				row.Called++
			}
		}
		f.Rows = append(f.Rows, row)
	}
	sortFigure2(f, topN)
	return f
}

// Render prints the figure data.
func (f *Figure2) Render() string {
	var b strings.Builder
	t := &stats.Table{
		Title:   "F2 — CP presence vs. Topics API calls (Figure 2, D_AA, Allowed & Attested)",
		Headers: []string{"calling party", "present on", "calls on", "share"},
	}
	chart := &stats.BarChart{Title: "websites (█ called, ░ present but not called)"}
	for _, r := range f.Rows {
		t.AddRow(r.CP, r.Present, r.Called, stats.Pct(stats.Share(r.Called, r.Present)))
		chart.AddPair(r.CP, float64(r.Called), float64(r.Present), fmt.Sprintf("%d/%d", r.Called, r.Present))
	}
	b.WriteString(t.Render())
	b.WriteByte('\n')
	b.WriteString(chart.Render())
	return b.String()
}

// sortFigure2 orders rows with a total order (presence desc, CP asc) and
// truncates to topN; the reference scan in legacy_test.go sorts with it
// too, so both produce byte-identical output.
func sortFigure2(f *Figure2, topN int) {
	sort.Slice(f.Rows, func(i, j int) bool {
		if f.Rows[i].Present != f.Rows[j].Present {
			return f.Rows[i].Present > f.Rows[j].Present
		}
		return f.Rows[i].CP < f.Rows[j].CP
	})
	if topN > 0 && len(f.Rows) > topN {
		f.Rows = f.Rows[:topN]
	}
}
