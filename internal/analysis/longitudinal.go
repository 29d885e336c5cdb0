package analysis

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"github.com/netmeasure/topicscope/internal/stats"
)

// Trajectory is the live form of experiment L1: the campaign bucketed
// into virtual weeks as it unfolds. The buckets are folded into the
// index one record at a time (LiveIndex.Fold), so a live index renders
// the trajectory mid-campaign from the latest snapshot, without a
// second crawl or an O(dataset) re-scan — §6's continuous monitoring as
// a by-product of the incremental fold.
type Trajectory struct {
	Rows []EpochRow `json:"rows,omitempty"`
}

// EpochRow is one virtual week of the campaign.
type EpochRow struct {
	// Epoch is the bucket ordinal: FetchedAt seconds / one week.
	Epoch int `json:"epoch"`
	// Start is the UTC start of the bucket.
	Start time.Time `json:"start"`
	// Visits and Calls count records and Topics API invocations whose
	// FetchedAt falls in the bucket.
	Visits int `json:"visits"`
	Calls  int `json:"calls"`
	// ActiveCallers is the number of distinct calling parties observed.
	ActiveCallers int `json:"activeCallers"`
	// SitesWithCall is the number of distinct After-Accept sites with at
	// least one call.
	SitesWithCall int `json:"sitesWithCall"`
}

// assembleTrajectory orders the per-epoch fold buckets into rows.
func assembleTrajectory(epochs map[int]*epochCount) Trajectory {
	tr := Trajectory{}
	keys := make([]int, 0, len(epochs))
	for ep := range epochs {
		keys = append(keys, ep)
	}
	sort.Ints(keys)
	for _, ep := range keys {
		ec := epochs[ep]
		tr.Rows = append(tr.Rows, EpochRow{
			Epoch:         ep,
			Start:         time.Unix(int64(ep)*epochSeconds, 0).UTC(),
			Visits:        ec.visits,
			Calls:         ec.calls,
			ActiveCallers: len(ec.callers),
			SitesWithCall: len(ec.sites),
		})
	}
	return tr
}

// ComputeTrajectory returns the campaign's virtual-week trajectory from
// the index (a defensive copy, like every Compute*).
func ComputeTrajectory(in *Input) *Trajectory {
	idx := in.Index()
	out := &Trajectory{Rows: append([]EpochRow(nil), idx.trajectory.Rows...)}
	return out
}

// Render prints the trajectory.
func (tr *Trajectory) Render() string {
	var b strings.Builder
	t := &stats.Table{
		Title:   "L1 — Campaign trajectory by virtual week (§6 continuous monitoring)",
		Headers: []string{"week of", "visits", "calls", "active CPs", "D_AA sites w/ call"},
	}
	for _, r := range tr.Rows {
		t.AddRow(r.Start.Format("2006-01-02"), r.Visits, r.Calls, r.ActiveCallers, r.SitesWithCall)
	}
	b.WriteString(t.Render())
	fmt.Fprintf(&b, "%d weeks observed\n", len(tr.Rows))
	return b.String()
}

// Longitudinal compares the A/B enabled rates of two crawls of the same
// site population at different times (experiment L1). §6 notes the study
// is a snapshot and "measurements should be conducted continuously";
// §3's repeated tests predict the population-level rates stay at the
// predetermined fractions while the per-site ON/OFF assignments rotate.
type Longitudinal struct {
	Rows []LongitudinalRow
}

// LongitudinalRow compares one CP across the two crawls.
type LongitudinalRow struct {
	CP string
	// RateA and RateB are the enabled rates in each crawl.
	RateA, RateB float64
	// PresentA/B are the presence denominators.
	PresentA, PresentB int
	// Drift is |RateA - RateB|.
	Drift float64
}

// CompareEnabledRates builds the comparison from two Figure 3 runs over
// the same world at different times.
func CompareEnabledRates(a, b *Figure3) *Longitudinal {
	byCP := make(map[string]EnabledRate, len(b.Rows))
	for _, r := range b.Rows {
		byCP[r.CP] = r
	}
	l := &Longitudinal{}
	for _, ra := range a.Rows {
		rb, ok := byCP[ra.CP]
		if !ok {
			continue
		}
		l.Rows = append(l.Rows, LongitudinalRow{
			CP:       ra.CP,
			RateA:    ra.Rate,
			RateB:    rb.Rate,
			PresentA: ra.Present,
			PresentB: rb.Present,
			Drift:    math.Abs(ra.Rate - rb.Rate),
		})
	}
	sort.Slice(l.Rows, func(i, j int) bool { return l.Rows[i].CP < l.Rows[j].CP })
	return l
}

// MaxDrift is the largest per-CP rate change between the crawls.
func (l *Longitudinal) MaxDrift() float64 {
	var m float64
	for _, r := range l.Rows {
		if r.Drift > m {
			m = r.Drift
		}
	}
	return m
}

// Render prints the comparison.
func (l *Longitudinal) Render() string {
	var b strings.Builder
	t := &stats.Table{
		Title:   "L1 — Enabled rates across two crawl snapshots (§3/§6)",
		Headers: []string{"calling party", "rate t0", "rate t1", "drift"},
	}
	for _, r := range l.Rows {
		t.AddRow(r.CP, stats.Pct(r.RateA), stats.Pct(r.RateB), stats.Pct(r.Drift))
	}
	b.WriteString(t.Render())
	b.WriteString("max drift: " + stats.Pct(l.MaxDrift()) + " — population rates hold while per-site assignments rotate\n")
	return b.String()
}
