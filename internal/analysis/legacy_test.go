package analysis

// The pre-index scan path: every legacyCompute* below recomputes its
// experiment with a full pass over Data.Visits, exactly as the pipeline
// did before the single-pass Index existed. It is kept as the reference
// implementation — the parity test asserts each indexed Compute* is
// reflect.DeepEqual to its legacy twin on a seeded campaign — and as
// executable documentation of each experiment's raw definition.

import (
	"github.com/netmeasure/topicscope/internal/chaos"
	"github.com/netmeasure/topicscope/internal/cmpdb"
	"github.com/netmeasure/topicscope/internal/dataset"
	"github.com/netmeasure/topicscope/internal/etld"
	"github.com/netmeasure/topicscope/internal/stats"
)

// allowed reports whether a caller is on the allow-list.
func (in *Input) allowed(caller string) bool {
	return in.Allowlist != nil && in.Allowlist.Contains(caller)
}

// attested reports whether a caller serves a valid Topics attestation.
func (in *Input) attested(caller string) bool {
	rec, ok := in.Attestations[etld.RegistrableDomain(caller)]
	return ok && rec.Attested()
}

// callersIn returns the distinct callers of a phase, restricted by the
// predicate (nil = all).
func (in *Input) callersIn(phase dataset.Phase, keep func(caller string) bool) map[string]bool {
	out := make(map[string]bool)
	for i := range in.Data.Visits {
		v := &in.Data.Visits[i]
		if v.Phase != phase {
			continue
		}
		for _, c := range v.Calls {
			if keep == nil || keep(c.Caller) {
				out[c.Caller] = true
			}
		}
	}
	return out
}

// presentOn reports the distinct sites (per phase) on which each
// candidate CP domain appears among downloaded resources.
func (in *Input) presentOn(phase dataset.Phase, candidates map[string]bool) map[string]map[string]bool {
	out := make(map[string]map[string]bool)
	for i := range in.Data.Visits {
		v := &in.Data.Visits[i]
		if v.Phase != phase || !v.Success {
			continue
		}
		seen := make(map[string]bool)
		for _, r := range v.Resources {
			if r.Failed {
				continue
			}
			reg := etld.RegistrableDomain(r.Host)
			if !candidates[reg] || seen[reg] {
				continue
			}
			seen[reg] = true
			set := out[reg]
			if set == nil {
				set = make(map[string]bool)
				out[reg] = set
			}
			set[v.Site] = true
		}
	}
	return out
}

// calledOn reports the distinct sites (per phase) on which each caller
// invoked the API.
func (in *Input) calledOn(phase dataset.Phase) map[string]map[string]bool {
	out := make(map[string]map[string]bool)
	for i := range in.Data.Visits {
		v := &in.Data.Visits[i]
		if v.Phase != phase {
			continue
		}
		for _, c := range v.Calls {
			set := out[c.Caller]
			if set == nil {
				set = make(map[string]bool)
				out[c.Caller] = set
			}
			set[v.Site] = true
		}
	}
	return out
}

// legitCallers are the paper's §3 subjects: Allowed & Attested CPs seen
// calling in the After-Accept dataset.
func (in *Input) legitCallers() map[string]bool {
	return in.callersIn(dataset.AfterAccept, func(caller string) bool {
		return in.allowed(caller) && in.attested(caller)
	})
}

// legacyComputeOverview is the scan-path D1.
func legacyComputeOverview(in *Input) *Overview {
	o := &Overview{}
	attempted := make(map[string]bool)
	visited := make(map[string]bool)
	accepted := make(map[string]bool)
	thirdParties := make(map[string]bool)

	legit := in.legitCallers()
	daaSites := make(map[string]bool)
	daaSitesWithCall := make(map[string]bool)

	for i := range in.Data.Visits {
		v := &in.Data.Visits[i]
		switch v.Phase {
		case dataset.BeforeAccept:
			attempted[v.Site] = true
			if v.Success {
				visited[v.Site] = true
			}
			if v.BannerDetected {
				o.BannersFound++
			}
			if v.Accepted {
				accepted[v.Site] = true
			}
			for _, r := range v.Resources {
				if r.ThirdParty && !r.Failed {
					thirdParties[etld.RegistrableDomain(r.Host)] = true
				}
			}
		case dataset.AfterAccept:
			if !v.Success {
				continue
			}
			daaSites[v.Site] = true
			for _, c := range v.Calls {
				if legit[c.Caller] {
					daaSitesWithCall[v.Site] = true
				}
			}
		}
	}

	o.Attempted = len(attempted)
	o.Visited = len(visited)
	o.Accepted = len(accepted)
	o.AcceptShare = stats.Share(o.Accepted, o.Visited)
	o.UniqueThirdParties = len(thirdParties)
	o.SitesWithLegitCall = len(daaSitesWithCall)
	o.LegitCallShare = stats.Share(len(daaSitesWithCall), len(daaSites))
	return o
}

// legacyComputeReliability is the scan-path D1r.
func legacyComputeReliability(in *Input) *Reliability {
	r := &Reliability{ByClass: make(map[string]int)}
	maxRank := 0
	for i := range in.Data.Visits {
		v := &in.Data.Visits[i]
		if v.Phase == dataset.BeforeAccept && v.Rank > maxRank {
			maxRank = v.Rank
		}
	}
	deciles := make([]ReliabilityDecile, 10)
	for i := range deciles {
		deciles[i].Decile = i + 1
	}
	for i := range in.Data.Visits {
		v := &in.Data.Visits[i]
		r.Retries += v.Retries
		for _, res := range v.Resources {
			if res.Failed && res.Error == string(chaos.ClassCircuitOpen) {
				r.CircuitOpens++
			}
		}
		if v.Phase != dataset.BeforeAccept {
			continue
		}
		r.Attempted++
		d := &deciles[decileOf(v.Rank, maxRank)]
		d.Attempted++
		if v.Success {
			r.Succeeded++
			d.Succeeded++
			if v.Partial {
				r.PartialVisits++
			}
			continue
		}
		r.Failed++
		class := v.ErrorClass
		if class == "" {
			class = string(chaos.ClassifyText(v.Error))
		}
		r.ByClass[class]++
	}
	r.SuccessRate = stats.Share(r.Succeeded, r.Attempted)
	for i := range deciles {
		deciles[i].SuccessRate = stats.Share(deciles[i].Succeeded, deciles[i].Attempted)
		if deciles[i].Attempted > 0 {
			r.Deciles = append(r.Deciles, deciles[i])
		}
	}
	return r
}

// legacyComputeTable1 is the scan-path T1.
func legacyComputeTable1(in *Input) *Table1 {
	t := &Table1{Allowed: in.Allowlist.Len()}
	for _, d := range in.Allowlist.Domains() {
		if rec, ok := in.Attestations[d]; ok && rec.Attested() {
			t.AllowedAttested++
		} else {
			t.AllowedNotAttested++
		}
	}

	for caller := range in.callersIn(dataset.AfterAccept, nil) {
		switch {
		case in.allowed(caller) && in.attested(caller):
			t.AAAllowedAttested++
		case !in.allowed(caller) && in.attested(caller):
			t.AANotAllowedAttested++
		case !in.allowed(caller):
			t.AANotAllowed++
		}
	}
	for caller := range in.callersIn(dataset.BeforeAccept, nil) {
		switch {
		case in.allowed(caller) && in.attested(caller):
			t.BAAllowedAttested++
		case !in.allowed(caller):
			t.BANotAllowed++
		}
	}
	return t
}

// legacyComputeFigure2 is the scan-path F2.
func legacyComputeFigure2(in *Input, topN int) *Figure2 {
	candidates := make(map[string]bool)
	for _, d := range in.Allowlist.Domains() {
		if rec, ok := in.Attestations[d]; ok && rec.Attested() {
			candidates[d] = true
		}
	}

	present := in.presentOn(dataset.AfterAccept, candidates)
	called := in.calledOn(dataset.AfterAccept)

	f := &Figure2{}
	for cp, sites := range present {
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

// legacyComputeFigure3 is the scan-path F3.
func legacyComputeFigure3(in *Input, minPresence, topN int) *Figure3 {
	if minPresence <= 0 {
		minPresence = 20
	}
	legit := in.legitCallers()
	present := in.presentOn(dataset.AfterAccept, legit)
	called := in.calledOn(dataset.AfterAccept)

	f := &Figure3{MinPresence: minPresence}
	for cp := range legit {
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

// legacyComputeAnomaly is the scan-path A1.
func legacyComputeAnomaly(in *Input) *Anomaly {
	a := &Anomaly{}
	cps := make(map[string]bool)
	sitesWith := make(map[string]bool)
	sitesWithGTM := make(map[string]bool)
	jsCalls := 0

	for i := range in.Data.Visits {
		v := &in.Data.Visits[i]
		if v.Phase != dataset.AfterAccept || !v.Success {
			continue
		}
		hasAnomalous := false
		for _, c := range v.Calls {
			if in.allowed(c.Caller) {
				continue
			}
			a.Calls++
			cps[c.Caller] = true
			hasAnomalous = true
			if etld.SameSecondLevel(c.Caller, v.Site) {
				a.SameSecondLevel++
			}
			if c.Type == dataset.CallJavaScript {
				jsCalls++
			}
		}
		if hasAnomalous {
			sitesWith[v.Site] = true
			for _, r := range v.Resources {
				if r.Host == gtmHost && !r.Failed {
					sitesWithGTM[v.Site] = true
					break
				}
			}
		}
	}

	a.UniqueCPs = len(cps)
	a.AnomalousSites = len(sitesWith)
	a.SitesWithGTM = len(sitesWithGTM)
	a.SameSecondLevelShare = stats.Share(a.SameSecondLevel, a.Calls)
	a.JavaScriptShare = stats.Share(jsCalls, a.Calls)
	a.GTMShare = stats.Share(a.SitesWithGTM, a.AnomalousSites)
	return a
}

// legacyComputeFigure5 is the scan-path F5.
func legacyComputeFigure5(in *Input, topN int) *Figure5 {
	aa := func(caller string) bool { return in.allowed(caller) && in.attested(caller) }
	before := in.calledOn(dataset.BeforeAccept)
	after := in.calledOn(dataset.AfterAccept)

	f := &Figure5{}
	for cp, sites := range before {
		if !aa(cp) {
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

// legacyComputeFigure6 is the scan-path F6.
func legacyComputeFigure6(in *Input, cps []string) *Figure6 {
	if cps == nil {
		f5 := legacyComputeFigure5(in, 4)
		for _, r := range f5.Rows {
			cps = append(cps, r.CP)
		}
	}
	want := make(map[string]bool, len(cps))
	for _, cp := range cps {
		want[cp] = true
	}

	present := in.presentOn(dataset.BeforeAccept, want)
	called := in.calledOn(dataset.BeforeAccept)

	f := &Figure6{CPs: cps, Regions: etld.Regions, Cells: make(map[string]map[etld.Region]RegionShare)}
	for _, cp := range cps {
		cells := make(map[etld.Region]RegionShare)
		for site := range present[cp] {
			region := etld.RegionOf(site)
			c := cells[region]
			c.Present++
			if called[cp][site] {
				c.Called++
			}
			cells[region] = c
		}
		f.Cells[cp] = cells
	}
	return f
}

// legacyComputeFigure7 is the scan-path F7.
func legacyComputeFigure7(in *Input) *Figure7 {
	sitesByCMP := stats.Counter{}
	questByCMP := stats.Counter{}
	total, quest := 0, 0

	for i := range in.Data.Visits {
		v := &in.Data.Visits[i]
		if v.Phase != dataset.BeforeAccept || !v.Success {
			continue
		}
		total++
		questionable := false
		for _, c := range v.Calls {
			if in.allowed(c.Caller) {
				questionable = true
				break
			}
		}
		if questionable {
			quest++
		}
		if v.CMP != "" {
			sitesByCMP.Add(v.CMP)
			if questionable {
				questByCMP.Add(v.CMP)
			}
		}
	}

	f := &Figure7{TotalSites: total, TotalQuestionable: quest,
		AvgQuestionableRate: stats.Share(quest, total)}
	for _, c := range cmpdb.All() {
		row := CMPRow{
			CMP:                   c.Name,
			Sites:                 sitesByCMP[c.Name],
			QuestionableSites:     questByCMP[c.Name],
			PCMP:                  stats.Share(sitesByCMP[c.Name], total),
			PCMPGivenQuestionable: stats.Share(questByCMP[c.Name], quest),
			PQuestionableGivenCMP: stats.Share(questByCMP[c.Name], sitesByCMP[c.Name]),
		}
		f.Rows = append(f.Rows, row)
	}
	return f
}

// legacyComputeEnrolment is the scan-path E1.
func legacyComputeEnrolment(in *Input) *Enrolment {
	e := &Enrolment{ByMonth: make(map[string]int)}
	for _, rec := range in.Attestations {
		if !rec.Attested() || rec.IssuedAt.IsZero() {
			continue
		}
		e.Total++
		if e.First.IsZero() || rec.IssuedAt.Before(e.First) {
			e.First = rec.IssuedAt
		}
		e.ByMonth[rec.IssuedAt.Format("2006-01")]++
		if rec.HasEnrollmentSite {
			e.WithEnrollmentSite++
		}
	}
	return e
}

// legacyComputeCallTypes is the scan-path X1.
func legacyComputeCallTypes(in *Input) *CallTypes {
	ct := &CallTypes{
		ByPhase:         make(map[dataset.Phase]map[dataset.CallType]int),
		LegitByType:     make(map[dataset.CallType]int),
		AnomalousByType: make(map[dataset.CallType]int),
		DominantPerCP:   make(map[string]dataset.CallType),
	}
	perCP := make(map[string]map[dataset.CallType]int)

	for i := range in.Data.Visits {
		v := &in.Data.Visits[i]
		for _, c := range v.Calls {
			phase := ct.ByPhase[v.Phase]
			if phase == nil {
				phase = make(map[dataset.CallType]int)
				ct.ByPhase[v.Phase] = phase
			}
			phase[c.Type]++
			if v.Phase != dataset.AfterAccept {
				continue
			}
			if in.allowed(c.Caller) {
				ct.LegitByType[c.Type]++
				m := perCP[c.Caller]
				if m == nil {
					m = make(map[dataset.CallType]int)
					perCP[c.Caller] = m
				}
				m[c.Type]++
			} else {
				ct.AnomalousByType[c.Type]++
			}
		}
	}

	for cp, m := range perCP {
		ct.DominantPerCP[cp] = dominantType(m)
	}
	return ct
}

// legacyComputeLanguages is the scan-path D2.
func legacyComputeLanguages(in *Input) *Languages {
	l := &Languages{AcceptedByLanguage: stats.Counter{}}
	for i := range in.Data.Visits {
		v := &in.Data.Visits[i]
		if v.Phase != dataset.BeforeAccept || !v.Success {
			continue
		}
		l.Visited++
		switch {
		case !v.BannerDetected:
			l.NoBanner++
		case v.Accepted:
			lang := v.BannerLanguage
			if lang == "" {
				lang = "unknown"
			}
			l.AcceptedByLanguage.Add(lang)
		default:
			l.MissedBanner++
		}
	}
	return l
}

// legacyRun executes all experiments sequentially over full scans.
func legacyRun(in *Input) *Report {
	return &Report{
		Overview:    legacyComputeOverview(in),
		Reliability: legacyComputeReliability(in),
		Table1:      legacyComputeTable1(in),
		Figure2:     legacyComputeFigure2(in, 15),
		Figure3:     legacyComputeFigure3(in, 0, 15),
		Anomaly:     legacyComputeAnomaly(in),
		Figure5:     legacyComputeFigure5(in, 15),
		Figure6:     legacyComputeFigure6(in, nil),
		Figure7:     legacyComputeFigure7(in),
		Enrolment:   legacyComputeEnrolment(in),
		CallTypes:   legacyComputeCallTypes(in),
		Languages:   legacyComputeLanguages(in),
	}
}
