package analysis

import (
	"errors"
	"runtime"
	"sync"

	"github.com/netmeasure/topicscope/internal/chaos"
	"github.com/netmeasure/topicscope/internal/cmpdb"
	"github.com/netmeasure/topicscope/internal/dataset"
	"github.com/netmeasure/topicscope/internal/etld"
	"github.com/netmeasure/topicscope/internal/stats"
)

// Index holds every aggregate the experiments query: a LiveIndex
// accumulator, folded from the visit records and finalized against the
// campaign's allow-list and attestation checks. Every route to an Index
// — the striped batch fold (BuildIndex), the merge of shard partials
// (MergeShardIndexes) and the live fold (LiveIndex.Snapshot) — ends in
// the one LiveIndex.finalize.
//
// Determinism invariant: every per-shard aggregate is either a counter
// (merge = addition), a set (merge = union), or a max — all commutative
// and associative — and every ordered output downstream is produced by a
// sort with a total order (count desc, name asc tie-break). The merged
// Index, and hence every table and figure, is therefore byte-identical
// regardless of GOMAXPROCS or stripe boundaries. The parity test in
// index_test.go checks this against the sequential reference scan in
// legacy_test.go.
//
// All hostname splitting goes through one etld.Cache, so each distinct
// hostname is normalized and split into eTLD+1/TLD/region exactly once
// per campaign, and the cached strings are interned: aggregation maps
// keyed by registrable domain share one backing string per domain.
type Index struct {
	etld *etld.Cache

	// called[phase][caller] is the set of sites where the caller invoked
	// the API, over all visits of the phase (failed ones included, as in
	// the reference calledOn scan).
	called map[dataset.Phase]map[string]siteSet
	// present[phase][registrable domain] is the set of sites embedding a
	// non-failed resource of that domain, over successful visits.
	present map[dataset.Phase]map[string]siteSet
	// callers classifies every distinct caller seen in any phase.
	callers map[string]callerFacts
	// aaAllowlist lists the Allowed & Attested allow-list domains in
	// Allowlist.Domains() order — Figure 2's candidate set.
	aaAllowlist []string

	// Precomputed parameterless experiments; the Compute* wrappers hand
	// out defensive copies so callers can never corrupt the index.
	overview    Overview
	reliability Reliability
	table1      Table1
	anomaly     Anomaly
	figure7     Figure7
	callTypes   CallTypes
	languages   Languages
	enrolment   Enrolment
	trajectory  Trajectory
}

// siteSet is a set of website domains.
type siteSet = map[string]bool

// callerFacts is the classification every experiment keys on: allow-list
// membership and attestation validity. Folding fills only allowed — the
// allow-list exists before the first visit, but the attestation sweep
// runs after the crawl — so attested is resolved in finalize. That split
// is what lets a live index fold records while the campaign is still
// running (live.go) and still finalize into the exact post-hoc Index.
type callerFacts struct {
	allowed  bool
	attested bool
}

// epochSeconds is the longitudinal bucket width: one virtual week, the
// cadence of the paper's §6 continuous-monitoring proposal.
const epochSeconds = 7 * 24 * 60 * 60

// epochCount accumulates one virtual-week bucket of the longitudinal
// trajectory (experiment L1's live form). Counters add, sets union.
type epochCount struct {
	visits, calls int
	callers       map[string]bool
	sites         siteSet
}

// rankCount accumulates Before-Accept visit outcomes per Tranco rank, so
// the rank-decile table can be assembled after the global max rank is
// known.
type rankCount struct {
	attempted, succeeded int
}

// BuildIndex aggregates the dataset with one worker per CPU.
func BuildIndex(in *Input) *Index {
	return foldStriped(in, runtime.GOMAXPROCS(0)).finalize(in)
}

// foldStriped folds the input's visits into one accumulator, one
// contiguous stripe per worker (see foldParts). The worker count is
// explicit so tests can prove the result independent of it.
func foldStriped(in *Input, workers int) *LiveIndex {
	visits := in.Data.Visits
	workers = max(1, min(workers, len(visits)))
	stripe := (len(visits) + workers - 1) / workers
	s := NewLiveIndex(in)
	foldParts(s, workers, func(i int, part *LiveIndex) error {
		for j := i * stripe; j < min((i+1)*stripe, len(visits)); j++ {
			part.Fold(&visits[j])
		}
		return nil
	})
	in.Metrics.Add("analysis_visits_indexed_total", int64(len(visits)))
	in.Metrics.Add("analysis_index_shards_total", int64(workers))
	return s
}

// foldParts is the one parallel fold: the parts of a record source — the
// stripes of an in-memory slice, the member ranges of a journal — fold
// each into a private accumulator over s's etld cache, the last on the
// calling goroutine and every other on its own, and absorb into s in
// part order once all of them have folded. A part's error discards
// every partial and leaves s as it was. A single part folds straight
// into s, with no goroutine.
func foldParts(s *LiveIndex, n int, fold func(i int, part *LiveIndex) error) error {
	if n == 1 {
		return fold(0, s)
	}
	parts := make([]*LiveIndex, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range parts {
		parts[i] = newLiveIndex(s.in, s.cache)
		if i == n-1 {
			errs[i] = fold(i, parts[i])
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fold(i, parts[i])
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for _, part := range parts {
		s.Absorb(part)
	}
	return nil
}

// LiveIndex is the analysis index before finalize: the accumulator
// every Index is folded into. Fold adds one visit record; Absorb merges
// another accumulator. Every field merges commutatively (see the Index
// determinism invariant), so the striped batch fold, per-shard partials
// merged in any order, and a fold fed one committed record at a time as
// the crawler emits them all reach the same accumulator — the
// incremental-parity test pins that for every prefix of a campaign.
//
// Folding bakes in only the allow-list half of each caller's
// classification; finalize resolves attestation against whatever Input
// it is given (see callerFacts), so an accumulator can fold while the
// campaign runs, long before the attestation sweep exists.
//
// Not safe for concurrent use: the crawler's rank-ordered sink is a
// single goroutine, which is exactly what makes one-at-a-time folding
// deterministic for free; the striped fold gives each worker its own.
type LiveIndex struct {
	in    *Input
	cache *etld.Cache
	// visits counts the records folded in, directly or by Absorb.
	visits int

	called  map[dataset.Phase]map[string]siteSet
	present map[dataset.Phase]map[string]siteSet
	callers map[string]callerFacts

	// Overview (D1). aaLegitCalled keys the successful After-Accept
	// call sites by their allowed caller; which of those callers are
	// attested — and hence which sites count as "legit call" sites — is
	// only known at finalize, after the attestation sweep.
	attempted, visited, accepted siteSet
	banners                      int
	thirdParties                 map[string]bool
	daaSites                     siteSet
	aaLegitCalled                map[string]siteSet

	// Reliability (D1r).
	retries, circuitOpens                 int
	relAttempted, relSucceeded, relFailed int
	partialVisits                         int
	byClass                               map[string]int
	ranks                                 map[int]*rankCount
	maxRank                               int

	// Anomaly (A1).
	anomCalls, sameSLD, jsCalls int
	anomCPs                     map[string]bool
	anomSites, gtmSites         siteSet

	// Figure 7.
	f7Total, f7Quest       int
	sitesByCMP, questByCMP stats.Counter

	// Call types (X1).
	byPhase     map[dataset.Phase]map[dataset.CallType]int
	legitByType map[dataset.CallType]int
	anomByType  map[dataset.CallType]int
	perCP       map[string]map[dataset.CallType]int

	// Languages (D2).
	langVisited, langNoBanner, langMissed int
	acceptedByLang                        stats.Counter

	// Longitudinal trajectory (L1 live form): per-virtual-week buckets.
	epochs map[int]*epochCount
}

// NewLiveIndex returns an empty accumulator with its own etld cache. The
// input needs only the allow-list (classification) and optionally
// Metrics; Attestations may be nil — they are resolved at finalize.
func NewLiveIndex(in *Input) *LiveIndex { return newLiveIndex(in, etld.NewCache()) }

// newLiveIndex returns an empty accumulator interning hostnames in
// cache, which the stripes of one fold share.
func newLiveIndex(in *Input, cache *etld.Cache) *LiveIndex {
	return &LiveIndex{
		in:    in,
		cache: cache,
		called: map[dataset.Phase]map[string]siteSet{
			dataset.BeforeAccept: {},
			dataset.AfterAccept:  {},
		},
		present: map[dataset.Phase]map[string]siteSet{
			dataset.BeforeAccept: {},
			dataset.AfterAccept:  {},
		},
		callers:        make(map[string]callerFacts),
		attempted:      make(siteSet),
		visited:        make(siteSet),
		accepted:       make(siteSet),
		thirdParties:   make(map[string]bool),
		daaSites:       make(siteSet),
		aaLegitCalled:  make(map[string]siteSet),
		byClass:        make(map[string]int),
		ranks:          make(map[int]*rankCount),
		anomCPs:        make(map[string]bool),
		anomSites:      make(siteSet),
		gtmSites:       make(siteSet),
		sitesByCMP:     stats.Counter{},
		questByCMP:     stats.Counter{},
		byPhase:        make(map[dataset.Phase]map[dataset.CallType]int),
		legitByType:    make(map[dataset.CallType]int),
		anomByType:     make(map[dataset.CallType]int),
		perCP:          make(map[string]map[dataset.CallType]int),
		acceptedByLang: stats.Counter{},
	}
}

// classify memoizes the allow-list membership per distinct caller. Only
// the allowed bit is known at fold time; finalize resolves attested from
// the post-crawl attestation sweep (see callerFacts).
func (s *LiveIndex) classify(caller string) callerFacts {
	if f, ok := s.callers[caller]; ok {
		return f
	}
	f := callerFacts{allowed: s.in.Allowlist != nil && s.in.Allowlist.Contains(caller)}
	s.callers[caller] = f
	return f
}

// phaseSets returns the per-caller/per-CP site-set map of a phase,
// creating it for phases beyond the standard two.
func phaseSets(m map[dataset.Phase]map[string]siteSet, p dataset.Phase) map[string]siteSet {
	sets := m[p]
	if sets == nil {
		sets = make(map[string]siteSet)
		m[p] = sets
	}
	return sets
}

// Fold adds one visit record: a single pass over its resources and calls
// feeds every experiment's aggregate at once. Each branch replicates the
// exact phase/success filter of the corresponding reference scan
// (legacy_test.go) — the filters differ per experiment on purpose, and
// the parity test depends on matching them bit for bit.
func (s *LiveIndex) Fold(v *dataset.Visit) {
	s.visits++
	ba := v.Phase == dataset.BeforeAccept
	aa := v.Phase == dataset.AfterAccept
	s.retries += v.Retries

	if ba {
		// Reliability: every Before-Accept visit, successful or not.
		if v.Rank > s.maxRank {
			s.maxRank = v.Rank
		}
		rc := s.ranks[v.Rank]
		if rc == nil {
			rc = &rankCount{}
			s.ranks[v.Rank] = rc
		}
		rc.attempted++
		s.relAttempted++
		if v.Success {
			s.relSucceeded++
			rc.succeeded++
			if v.Partial {
				s.partialVisits++
			}
		} else {
			s.relFailed++
			class := v.ErrorClass
			if class == "" {
				class = string(chaos.ClassifyText(v.Error))
			}
			s.byClass[class]++
		}

		// Overview D_BA block.
		s.attempted[v.Site] = true
		if v.Success {
			s.visited[v.Site] = true
		}
		if v.BannerDetected {
			s.banners++
		}
		if v.Accepted {
			s.accepted[v.Site] = true
		}

		// Languages: successful Before-Accept visits only.
		if v.Success {
			s.langVisited++
			switch {
			case !v.BannerDetected:
				s.langNoBanner++
			case v.Accepted:
				lang := v.BannerLanguage
				if lang == "" {
					lang = "unknown"
				}
				s.acceptedByLang.Add(lang)
			default:
				s.langMissed++
			}
		}
	}
	if aa && v.Success {
		s.daaSites[v.Site] = true
	}

	// Resources: presence (successful visits), third parties (D_BA, any
	// outcome), circuit-breaker hits (any phase), GTM detection. A
	// non-failed resource repeating the previous one's (Host, ThirdParty)
	// is skipped: everything below is idempotent in those two fields, and
	// a page's resources from one host are adjacent.
	hasGTM := false
	var pres map[string]siteSet
	if v.Success {
		pres = phaseSets(s.present, v.Phase)
	}
	var prev *dataset.Resource
	for i := range v.Resources {
		r := &v.Resources[i]
		if r.Failed {
			if r.Error == string(chaos.ClassCircuitOpen) {
				s.circuitOpens++
			}
			continue
		}
		if prev != nil && r.Host == prev.Host && r.ThirdParty == prev.ThirdParty {
			continue
		}
		prev = r
		reg := s.cache.Registrable(r.Host)
		if pres != nil {
			set := pres[reg]
			if set == nil {
				set = make(siteSet)
				pres[reg] = set
			}
			set[v.Site] = true
		}
		if ba && r.ThirdParty {
			s.thirdParties[reg] = true
		}
		if r.Host == gtmHost {
			hasGTM = true
		}
	}

	// Calls: caller→site sets (any outcome), call types, anomaly and
	// questionable classification.
	calledPhase := phaseSets(s.called, v.Phase)
	hasAnomalous, questionable := false, false
	for i := range v.Calls {
		c := &v.Calls[i]
		facts := s.classify(c.Caller)

		set := calledPhase[c.Caller]
		if set == nil {
			set = make(siteSet)
			calledPhase[c.Caller] = set
		}
		set[v.Site] = true

		types := s.byPhase[v.Phase]
		if types == nil {
			types = make(map[dataset.CallType]int)
			s.byPhase[v.Phase] = types
		}
		types[c.Type]++

		if ba && facts.allowed {
			questionable = true
		}
		if !aa {
			continue
		}
		if facts.allowed {
			s.legitByType[c.Type]++
			m := s.perCP[c.Caller]
			if m == nil {
				m = make(map[dataset.CallType]int)
				s.perCP[c.Caller] = m
			}
			m[c.Type]++
			if v.Success {
				set := s.aaLegitCalled[c.Caller]
				if set == nil {
					set = make(siteSet)
					s.aaLegitCalled[c.Caller] = set
				}
				set[v.Site] = true
			}
		} else {
			s.anomByType[c.Type]++
			if v.Success {
				s.anomCalls++
				s.anomCPs[c.Caller] = true
				hasAnomalous = true
				if s.cache.SameSecondLevel(c.Caller, v.Site) {
					s.sameSLD++
				}
				if c.Type == dataset.CallJavaScript {
					s.jsCalls++
				}
			}
		}
	}
	if aa && v.Success && hasAnomalous {
		s.anomSites[v.Site] = true
		if hasGTM {
			s.gtmSites[v.Site] = true
		}
	}

	// Figure 7: successful Before-Accept visits.
	if ba && v.Success {
		s.f7Total++
		if questionable {
			s.f7Quest++
		}
		if v.CMP != "" {
			s.sitesByCMP.Add(v.CMP)
			if questionable {
				s.questByCMP.Add(v.CMP)
			}
		}
	}

	// Longitudinal trajectory: bucket the visit into its virtual week.
	// Visit timestamps sit on the deterministic stage clocks, so the
	// bucketing is as reproducible as everything else.
	if !v.FetchedAt.IsZero() {
		if s.epochs == nil {
			s.epochs = make(map[int]*epochCount)
		}
		ep := int(v.FetchedAt.Unix() / epochSeconds)
		ec := s.epochs[ep]
		if ec == nil {
			ec = &epochCount{callers: make(map[string]bool), sites: make(siteSet)}
			s.epochs[ep] = ec
		}
		ec.visits++
		ec.calls += len(v.Calls)
		for i := range v.Calls {
			ec.callers[v.Calls[i].Caller] = true
		}
		if aa && len(v.Calls) > 0 {
			ec.sites[v.Site] = true
		}
	}
}

// Absorb merges another accumulator into s. Wherever both hold a map —
// a set, a counter, a per-key table — the smaller merges into the
// larger, which s keeps, so o's maps end up shared or spent: o must be
// dead afterwards (every caller absorbs a stripe, a range, a shard or a
// segment it then drops, or a clone). Every operation is commutative,
// so neither the merge order nor which side is larger can influence
// the result.
func (s *LiveIndex) Absorb(o *LiveIndex) {
	s.visits += o.visits
	s.called = mergeMap(s.called, o.called, mergeSiteSets)
	s.present = mergeMap(s.present, o.present, mergeSiteSets)
	s.callers = mergeMap(s.callers, o.callers, func(f, _ callerFacts) callerFacts { return f })

	s.attempted = unionSet(s.attempted, o.attempted)
	s.visited = unionSet(s.visited, o.visited)
	s.accepted = unionSet(s.accepted, o.accepted)
	s.thirdParties = unionSet(s.thirdParties, o.thirdParties)
	s.daaSites = unionSet(s.daaSites, o.daaSites)
	s.aaLegitCalled = mergeSiteSets(s.aaLegitCalled, o.aaLegitCalled)
	s.banners += o.banners

	s.retries += o.retries
	s.circuitOpens += o.circuitOpens
	s.relAttempted += o.relAttempted
	s.relSucceeded += o.relSucceeded
	s.relFailed += o.relFailed
	s.partialVisits += o.partialVisits
	s.byClass = addCounts(s.byClass, o.byClass)
	s.ranks = mergeMap(s.ranks, o.ranks, func(a, b *rankCount) *rankCount {
		a.attempted += b.attempted
		a.succeeded += b.succeeded
		return a
	})
	s.maxRank = max(s.maxRank, o.maxRank)

	s.anomCalls += o.anomCalls
	s.sameSLD += o.sameSLD
	s.jsCalls += o.jsCalls
	s.anomCPs = unionSet(s.anomCPs, o.anomCPs)
	s.anomSites = unionSet(s.anomSites, o.anomSites)
	s.gtmSites = unionSet(s.gtmSites, o.gtmSites)

	s.f7Total += o.f7Total
	s.f7Quest += o.f7Quest
	s.sitesByCMP = addCounts(s.sitesByCMP, o.sitesByCMP)
	s.questByCMP = addCounts(s.questByCMP, o.questByCMP)

	s.byPhase = mergeMap(s.byPhase, o.byPhase, addCounts)
	s.legitByType = addCounts(s.legitByType, o.legitByType)
	s.anomByType = addCounts(s.anomByType, o.anomByType)
	s.perCP = mergeMap(s.perCP, o.perCP, addCounts)

	s.langVisited += o.langVisited
	s.langNoBanner += o.langNoBanner
	s.langMissed += o.langMissed
	s.acceptedByLang = addCounts(s.acceptedByLang, o.acceptedByLang)

	s.epochs = mergeMap(s.epochs, o.epochs, func(a, b *epochCount) *epochCount {
		a.visits += b.visits
		a.calls += b.calls
		a.callers = unionSet(a.callers, b.callers)
		a.sites = unionSet(a.sites, b.sites)
		return a
	})
}

// mergeMap merges the smaller of two maps into the larger and returns
// it: a key one side holds keeps its value, a key both hold gets
// add(dst's value, src's value), argument order swapped when the maps
// are. Both maps are spent.
func mergeMap[K comparable, V any](dst, src map[K]V, add func(a, b V) V) map[K]V {
	if len(dst) < len(src) {
		dst, src = src, dst
	}
	for k, v := range src {
		if d, ok := dst[k]; ok {
			v = add(d, v)
		}
		dst[k] = v
	}
	return dst
}

func mergeSiteSets(dst, src map[string]siteSet) map[string]siteSet {
	return mergeMap(dst, src, unionSet)
}

func unionSet(dst, src map[string]bool) map[string]bool {
	return mergeMap(dst, src, func(bool, bool) bool { return true })
}

func addCounts[K comparable](dst, src map[K]int) map[K]int {
	return mergeMap(dst, src, func(a, b int) int { return a + b })
}

// finalize assembles the Index from the accumulator: it resolves the
// attestation half of the caller classification and computes the
// parameterless experiment results, matching the reference scans field
// for field. The Index takes over the accumulator's maps (and writes the
// attestation facts into its caller map), so the accumulator must not be
// folded afterwards; Snapshot finalizes a clone instead.
func (s *LiveIndex) finalize(in *Input) *Index {
	idx := &Index{
		etld:    s.cache,
		called:  s.called,
		present: s.present,
		callers: s.callers,
	}

	// Resolve the attestation half of every caller's classification.
	// Folding recorded only the allow-list bit (the attestation sweep
	// happens after the crawl — a live index folds long before the
	// records it will be judged against exist); the input handed to
	// finalize carries the campaign-global attestation checks.
	for caller, facts := range idx.callers {
		rec, ok := in.Attestations[idx.etld.Registrable(caller)]
		facts.attested = ok && rec.Attested()
		idx.callers[caller] = facts
	}

	// Table 1 allow-list block + Figure 2's candidate list.
	t := Table1{}
	if in.Allowlist != nil {
		t.Allowed = in.Allowlist.Len()
		for _, d := range in.Allowlist.Domains() {
			if rec, ok := in.Attestations[d]; ok && rec.Attested() {
				t.AllowedAttested++
				idx.aaAllowlist = append(idx.aaAllowlist, d)
			} else {
				t.AllowedNotAttested++
			}
		}
	}
	for caller := range idx.called[dataset.AfterAccept] {
		switch facts := idx.callers[caller]; {
		case facts.allowed && facts.attested:
			t.AAAllowedAttested++
		case !facts.allowed && facts.attested:
			t.AANotAllowedAttested++
		case !facts.allowed:
			t.AANotAllowed++
		}
	}
	for caller := range idx.called[dataset.BeforeAccept] {
		switch facts := idx.callers[caller]; {
		case facts.allowed && facts.attested:
			t.BAAllowedAttested++
		case !facts.allowed:
			t.BANotAllowed++
		}
	}
	idx.table1 = t

	// Overview. The "legit call" site set is the union of the successful
	// After-Accept call sites of the allowed callers that turned out
	// attested — the same aa && allowed && success && attested condition
	// the reference scan applies per call, regrouped by caller so the
	// attested factor could wait for the sweep.
	daaSitesWithCall := make(siteSet)
	for caller, sites := range s.aaLegitCalled {
		if idx.callers[caller].attested {
			for site := range sites {
				daaSitesWithCall[site] = true
			}
		}
	}
	idx.overview = Overview{
		Attempted:          len(s.attempted),
		Visited:            len(s.visited),
		Accepted:           len(s.accepted),
		AcceptShare:        stats.Share(len(s.accepted), len(s.visited)),
		UniqueThirdParties: len(s.thirdParties),
		BannersFound:       s.banners,
		SitesWithLegitCall: len(daaSitesWithCall),
		LegitCallShare:     stats.Share(len(daaSitesWithCall), len(s.daaSites)),
	}

	// Reliability, deciles reassembled from the per-rank counts now that
	// the global max rank is known.
	r := Reliability{
		Attempted:     s.relAttempted,
		Succeeded:     s.relSucceeded,
		Failed:        s.relFailed,
		SuccessRate:   stats.Share(s.relSucceeded, s.relAttempted),
		ByClass:       s.byClass,
		Retries:       s.retries,
		PartialVisits: s.partialVisits,
		CircuitOpens:  s.circuitOpens,
	}
	deciles := make([]ReliabilityDecile, 10)
	for i := range deciles {
		deciles[i].Decile = i + 1
	}
	for rank, rc := range s.ranks {
		d := &deciles[decileOf(rank, s.maxRank)]
		d.Attempted += rc.attempted
		d.Succeeded += rc.succeeded
	}
	for i := range deciles {
		deciles[i].SuccessRate = stats.Share(deciles[i].Succeeded, deciles[i].Attempted)
		if deciles[i].Attempted > 0 {
			r.Deciles = append(r.Deciles, deciles[i])
		}
	}
	idx.reliability = r

	// Anomaly.
	idx.anomaly = Anomaly{
		UniqueCPs:            len(s.anomCPs),
		Calls:                s.anomCalls,
		SameSecondLevel:      s.sameSLD,
		SameSecondLevelShare: stats.Share(s.sameSLD, s.anomCalls),
		JavaScriptShare:      stats.Share(s.jsCalls, s.anomCalls),
		AnomalousSites:       len(s.anomSites),
		SitesWithGTM:         len(s.gtmSites),
		GTMShare:             stats.Share(len(s.gtmSites), len(s.anomSites)),
	}

	// Figure 7, rows in cmpdb order.
	f7 := Figure7{
		TotalSites:          s.f7Total,
		TotalQuestionable:   s.f7Quest,
		AvgQuestionableRate: stats.Share(s.f7Quest, s.f7Total),
	}
	for _, c := range cmpdb.All() {
		f7.Rows = append(f7.Rows, CMPRow{
			CMP:                   c.Name,
			Sites:                 s.sitesByCMP[c.Name],
			QuestionableSites:     s.questByCMP[c.Name],
			PCMP:                  stats.Share(s.sitesByCMP[c.Name], s.f7Total),
			PCMPGivenQuestionable: stats.Share(s.questByCMP[c.Name], s.f7Quest),
			PQuestionableGivenCMP: stats.Share(s.questByCMP[c.Name], s.sitesByCMP[c.Name]),
		})
	}
	idx.figure7 = f7

	// Call types.
	ct := CallTypes{
		ByPhase:         s.byPhase,
		LegitByType:     s.legitByType,
		AnomalousByType: s.anomByType,
		DominantPerCP:   make(map[string]dataset.CallType, len(s.perCP)),
	}
	for cp, m := range s.perCP {
		ct.DominantPerCP[cp] = dominantType(m)
	}
	idx.callTypes = ct

	// Languages.
	idx.languages = Languages{
		Visited:            s.langVisited,
		NoBanner:           s.langNoBanner,
		AcceptedByLanguage: s.acceptedByLang,
		MissedBanner:       s.langMissed,
	}

	// Enrolment reads the attestation checks, not the visits; computing
	// it here lets ComputeEnrolment answer from a copy.
	e := Enrolment{ByMonth: make(map[string]int)}
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
	idx.enrolment = e

	// Longitudinal trajectory: virtual-week buckets in time order.
	idx.trajectory = assembleTrajectory(s.epochs)
	return idx
}

// Hosts returns the number of distinct hostnames interned by the index's
// etld cache.
func (idx *Index) Hosts() int { return idx.etld.Len() }

// copyMap returns a shallow copy of m, never nil: the Compute* wrappers
// hand out copies so results share nothing with the index, and clone
// copies every set and counter with it.
func copyMap[M ~map[K]V, K comparable, V any](m M) M {
	out := make(M, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
