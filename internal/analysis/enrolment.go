package analysis

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/netmeasure/topicscope/internal/stats"
)

// Enrolment reproduces the §3 enrolment timeline reconstructed from
// attestation issue dates (experiment E1): enrolments "kicked off in
// June 2023, the first attestation being on the 16th", then continue
// "at a low pace: each month, approximately a dozen new services".
type Enrolment struct {
	// First is the earliest attestation issue date.
	First time.Time
	// ByMonth counts attestations per "YYYY-MM".
	ByMonth map[string]int
	// Total is the number of attested domains.
	Total int
	// WithEnrollmentSite counts files already carrying the
	// enrollment_site field of the October 17th, 2024 migration.
	WithEnrollmentSite int
}

// ComputeEnrolment runs experiment E1 over the attestation checks.
func ComputeEnrolment(in *Input) *Enrolment {
	e := in.Index().enrolment
	e.ByMonth = copyMap(e.ByMonth)
	return &e
}

// MonthlyPace returns the mean enrolments per month over the observed
// window.
func (e *Enrolment) MonthlyPace() float64 {
	if len(e.ByMonth) == 0 {
		return 0
	}
	return float64(e.Total) / float64(len(e.ByMonth))
}

// Render prints the timeline.
func (e *Enrolment) Render() string {
	var b strings.Builder
	t := &stats.Table{
		Title:   "E1 — Attestation enrolment timeline (§3)",
		Headers: []string{"month", "new attestations"},
	}
	months := make([]string, 0, len(e.ByMonth))
	for m := range e.ByMonth {
		months = append(months, m)
	}
	sort.Strings(months)
	for _, m := range months {
		t.AddRow(m, e.ByMonth[m])
	}
	b.WriteString(t.Render())
	fmt.Fprintf(&b, "first attestation: %s\n", e.First.Format("2006-01-02"))
	fmt.Fprintf(&b, "mean pace: %.1f new attestations per month\n", e.MonthlyPace())
	fmt.Fprintf(&b, "with enrollment_site field: %d of %d\n", e.WithEnrollmentSite, e.Total)
	return b.String()
}
