package analysis

import (
	"sort"
	"strconv"
	"strings"

	"github.com/netmeasure/topicscope/internal/dataset"
	"github.com/netmeasure/topicscope/internal/stats"
)

// CallTypes breaks the recorded Topics API invocations down by
// integration style (experiment X1). §2.2: the instrumentation logs
// "the API call type (JavaScript, Fetch or IFrame)"; §4 observes that
// every anomalous call uses the JavaScript function, while legitimate
// callers spread across the three integration styles of the official
// guide.
type CallTypes struct {
	// ByPhase[phase][type] counts calls.
	ByPhase map[dataset.Phase]map[dataset.CallType]int
	// LegitByType counts D_AA calls by Allowed callers per type.
	LegitByType map[dataset.CallType]int
	// AnomalousByType counts D_AA calls by not-Allowed callers per type.
	AnomalousByType map[dataset.CallType]int
	// DominantPerCP maps each Allowed caller to its most-used type.
	DominantPerCP map[string]dataset.CallType
}

// AllCallTypes lists the three integration styles in display order.
var AllCallTypes = []dataset.CallType{
	dataset.CallJavaScript, dataset.CallFetch, dataset.CallIframe,
}

// ComputeCallTypes runs experiment X1.
func ComputeCallTypes(in *Input) *CallTypes {
	pre := in.Index().callTypes
	ct := &CallTypes{
		ByPhase:         make(map[dataset.Phase]map[dataset.CallType]int, len(pre.ByPhase)),
		LegitByType:     copyMap(pre.LegitByType),
		AnomalousByType: copyMap(pre.AnomalousByType),
		DominantPerCP:   make(map[string]dataset.CallType, len(pre.DominantPerCP)),
	}
	for phase, types := range pre.ByPhase {
		ct.ByPhase[phase] = copyMap(types)
	}
	for cp, typ := range pre.DominantPerCP {
		ct.DominantPerCP[cp] = typ
	}
	return ct
}

// AnomalousJSShare returns the fraction of anomalous calls using the
// JavaScript style (§4: must be 1).
func (ct *CallTypes) AnomalousJSShare() float64 {
	total := 0
	for _, n := range ct.AnomalousByType {
		total += n
	}
	return stats.Share(ct.AnomalousByType[dataset.CallJavaScript], total)
}

// Render prints the breakdown.
func (ct *CallTypes) Render() string {
	var b strings.Builder
	t := &stats.Table{
		Title:   "X1 — Topics API call types (§2.2 instrumentation)",
		Headers: []string{"population", "javascript", "fetch", "iframe"},
	}
	for _, phase := range []dataset.Phase{dataset.BeforeAccept, dataset.AfterAccept} {
		row := ct.ByPhase[phase]
		t.AddRow(phase.DatasetName()+" (all)", row[dataset.CallJavaScript], row[dataset.CallFetch], row[dataset.CallIframe])
	}
	t.AddRow("D_AA Allowed", ct.LegitByType[dataset.CallJavaScript], ct.LegitByType[dataset.CallFetch], ct.LegitByType[dataset.CallIframe])
	t.AddRow("D_AA !Allowed", ct.AnomalousByType[dataset.CallJavaScript], ct.AnomalousByType[dataset.CallFetch], ct.AnomalousByType[dataset.CallIframe])
	b.WriteString(t.Render())

	cps := make([]string, 0, len(ct.DominantPerCP))
	for cp := range ct.DominantPerCP {
		cps = append(cps, cp)
	}
	sort.Strings(cps)
	counts := stats.Counter{}
	for _, cp := range cps {
		counts.Add(string(ct.DominantPerCP[cp]))
	}
	b.WriteString("dominant style across Allowed CPs: ")
	parts := make([]string, 0, 3)
	for _, kv := range counts.Sorted() {
		parts = append(parts, kv.Key+"="+strconv.Itoa(kv.Count))
	}
	b.WriteString(strings.Join(parts, " ") + "\n")
	return b.String()
}

// dominantType picks a CP's most-used call type, ties broken by the
// AllCallTypes display order.
func dominantType(m map[dataset.CallType]int) dataset.CallType {
	best, bestN := dataset.CallJavaScript, -1
	for _, typ := range AllCallTypes {
		if m[typ] > bestN {
			best, bestN = typ, m[typ]
		}
	}
	return best
}
