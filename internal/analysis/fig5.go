package analysis

import (
	"sort"
	"strconv"
	"strings"

	"github.com/netmeasure/topicscope/internal/dataset"
	"github.com/netmeasure/topicscope/internal/stats"
)

// QuestionableCP is one bar of Figure 5: an Allowed & Attested CP and
// the number of websites on which it called the Topics API in the
// Before-Accept visit — before any consent was given.
type QuestionableCP struct {
	CP string
	// Sites is the number of distinct websites with a Before-Accept
	// call by this CP.
	Sites int
	// AfterSites is the CP's After-Accept call footprint, for the
	// paper's observation that questionable volume correlates poorly
	// with popularity (yandex first in D_BA despite doubleclick's D_AA
	// dominance).
	AfterSites int
}

// Figure5 reproduces Figure 5: questionable API calls by Allowed &
// Attested services in D_BA.
type Figure5 struct {
	Rows []QuestionableCP
	// TotalQuestionableCPs counts every A&A CP with at least one
	// Before-Accept call (paper: 28).
	TotalQuestionableCPs int
}

// ComputeFigure5 runs experiment F5; topN bounds the output (paper: 15),
// 0 means all.
func ComputeFigure5(in *Input, topN int) *Figure5 {
	idx := in.Index()
	before := idx.called[dataset.BeforeAccept]
	after := idx.called[dataset.AfterAccept]

	f := &Figure5{}
	for cp, sites := range before {
		if facts := idx.callers[cp]; !facts.allowed || !facts.attested {
			continue
		}
		f.TotalQuestionableCPs++
		f.Rows = append(f.Rows, QuestionableCP{
			CP:         cp,
			Sites:      len(sites),
			AfterSites: len(after[cp]),
		})
	}
	sortFigure5(f, topN)
	return f
}

// Render prints the figure data.
func (f *Figure5) Render() string {
	var b strings.Builder
	t := &stats.Table{
		Title:   "F5 — Questionable Before-Accept calls by Allowed & Attested CPs (Figure 5, D_BA)",
		Headers: []string{"calling party", "D_BA sites", "D_AA sites"},
	}
	chart := &stats.BarChart{Title: "websites with a Before-Accept call"}
	for _, r := range f.Rows {
		t.AddRow(r.CP, r.Sites, r.AfterSites)
		chart.Add(r.CP, float64(r.Sites), strconv.Itoa(r.Sites))
	}
	b.WriteString(t.Render())
	b.WriteByte('\n')
	b.WriteString(chart.Render())
	b.WriteString("total questionable A&A CPs: " + strconv.Itoa(f.TotalQuestionableCPs) + "\n")
	return b.String()
}

// sortFigure5 orders rows with a total order (sites desc, CP asc) and
// truncates to topN, as sortFigure2 does.
func sortFigure5(f *Figure5, topN int) {
	sort.Slice(f.Rows, func(i, j int) bool {
		if f.Rows[i].Sites != f.Rows[j].Sites {
			return f.Rows[i].Sites > f.Rows[j].Sites
		}
		return f.Rows[i].CP < f.Rows[j].CP
	})
	if topN > 0 && len(f.Rows) > topN {
		f.Rows = f.Rows[:topN]
	}
}
