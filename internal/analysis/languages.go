package analysis

import (
	"strings"

	"github.com/netmeasure/topicscope/internal/stats"
)

// Languages characterises the Priv-Accept consent interaction
// (experiment D2). §2.2: Priv-Accept "looks for keywords and supports
// five languages – i.e., English, French, Spanish, German and Italian"
// with 92–95% accuracy; §2.4 footnote: After-Accept visits fail when
// "the website does not implement any banner, or Priv-Accept misses
// language or keyword".
type Languages struct {
	// Visited is the number of successful Before-Accept visits.
	Visited int
	// NoBanner counts sites with no detected privacy banner.
	NoBanner int
	// AcceptedByLanguage counts accepted banners per detected language.
	AcceptedByLanguage stats.Counter
	// MissedBanner counts banners found whose accept control was not
	// recognised (unsupported language or unusual wording).
	MissedBanner int
}

// ComputeLanguages runs experiment D2 over Before-Accept visits.
func ComputeLanguages(in *Input) *Languages {
	l := in.Index().languages
	l.AcceptedByLanguage = copyMap(l.AcceptedByLanguage)
	return &l
}

// AcceptRate is the share of visited sites ending with consent granted.
func (l *Languages) AcceptRate() float64 {
	return stats.Share(l.AcceptedByLanguage.Total(), l.Visited)
}

// MissRate is the share of banner sites Priv-Accept could not accept.
func (l *Languages) MissRate() float64 {
	banners := l.Visited - l.NoBanner
	return stats.Share(l.MissedBanner, banners)
}

// Render prints the breakdown.
func (l *Languages) Render() string {
	var b strings.Builder
	t := &stats.Table{
		Title:   "D2 — Priv-Accept outcomes by language (§2.2)",
		Headers: []string{"outcome", "sites", "share"},
	}
	t.AddRow("no banner", l.NoBanner, stats.Pct(stats.Share(l.NoBanner, l.Visited)))
	t.AddRow("banner, not accepted", l.MissedBanner, stats.Pct(stats.Share(l.MissedBanner, l.Visited)))
	for _, kv := range l.AcceptedByLanguage.Sorted() {
		t.AddRow("accepted ("+kv.Key+")", kv.Count, stats.Pct(stats.Share(kv.Count, l.Visited)))
	}
	b.WriteString(t.Render())
	b.WriteString("accept rate: " + stats.Pct(l.AcceptRate()) +
		", banner miss rate: " + stats.Pct(l.MissRate()) + "\n")
	return b.String()
}
