package webworld

import (
	"maps"
	"math/rand/v2"
	"slices"

	"github.com/netmeasure/topicscope/internal/adcatalog"
	"github.com/netmeasure/topicscope/internal/cmpdb"
	"github.com/netmeasure/topicscope/internal/etld"
)

// Generate builds the synthetic web. Generation is deterministic in
// Config.Seed.
func Generate(cfg Config) *World {
	cfg = cfg.withDefaults()
	return GenerateRange(cfg, 1, cfg.NumSites)
}

// GenerateRange builds the world window covering ranks [from, to]: the
// generator streams through ranks 1..to exactly as Generate would —
// site generation shares sequential namer state, so rank r's domain
// depends on every earlier rank's collisions — but only the sites
// inside the window are materialized and indexed. The retained sites
// are byte-identical to the same ranks of a full Generate, which is
// what lets a campaign shard hold just its slice of a 500k-site world
// (plus the O(1)-per-rank namer state) instead of the whole thing.
//
// World-level host universes (ad catalog, CMP hosts, long-tail pool)
// are global and fully present, so Classify and serving work unchanged
// for every host a shard's pages can reference.
func GenerateRange(cfg Config, from, to int) *World {
	cfg = cfg.withDefaults()
	if from < 1 {
		from = 1
	}
	if to > cfg.NumSites {
		to = cfg.NumSites
	}
	w := &World{
		Cfg:      cfg,
		Catalog:  adcatalog.New(),
		byDomain: make(map[string]*Site, (to-from+1)*2+1),
		longTail: make(map[string]bool, cfg.LongTailPool),
		cmpHosts: make(map[string]string, 16),
	}
	for _, c := range cmpdb.All() {
		w.cmpHosts[c.Domain] = c.Name
	}

	pool := makeLongTailPool(cfg)
	for _, h := range pool.hosts {
		w.longTail[h] = true
	}

	stream(cfg, pool, to, func(site *Site) {
		if site.Rank < from {
			return // generated for namer state only; not retained
		}
		w.Sites = append(w.Sites, site)
		w.byDomain[site.Domain] = site
		if site.RedirectTo != "" {
			w.byDomain[site.RedirectTo] = site
		}
	})
	return w
}

// stream generates sites of ranks 1..to in rank order, invoking visit
// for each. It is the sequential core shared by Generate and
// GenerateRange; cfg must already carry defaults.
func stream(cfg Config, pool *longTailPool, to int, visit func(*Site)) {
	catalog := adcatalog.New()
	nm := newNamer()
	reserveKnownDomains(nm, catalog)

	meanIntensity := meanAdIntensity(cfg.AdIntensityWeights)
	embeddable := catalog.Embeddable()

	for rank := 1; rank <= to; rank++ {
		rng := rand.New(rand.NewPCG(cfg.Seed, uint64(rank)*0x9E3779B97F4A7C15+0xD1B54A32D192ED03))
		var site *Site
		if rank == cfg.DistilleryRank {
			site = distillerySite(rank)
		} else {
			site = genSite(rank, rng, cfg, nm, pool, embeddable, meanIntensity)
		}
		visit(site)
	}
}

// reserveKnownDomains prevents the namer from generating a site that
// collides with a platform, CMP or infrastructure domain.
func reserveKnownDomains(nm *namer, catalog *adcatalog.Catalog) {
	for _, p := range catalog.All() {
		nm.used[p.Domain] = true
	}
	for _, c := range cmpdb.All() {
		nm.used[c.Domain] = true
	}
	nm.used[GTMDomain] = true
}

func genSite(rank int, rng *rand.Rand, cfg Config, nm *namer, pool *longTailPool, embeddable []*adcatalog.Platform, meanIntensity float64) *Site {
	region := pickRegion(rng, cfg.RegionShare)
	tld, lang := pickTLD(rng, region)
	s := &Site{
		Rank:     rank,
		Domain:   nm.siteDomain(rng, tld),
		Region:   region,
		Language: lang,
	}

	s.Reachable = rng.Float64() < cfg.ReachableRate
	if !s.Reachable {
		switch rng.IntN(3) {
		case 0:
			s.Failure = FailDNS
		case 1:
			s.Failure = FailRefused
		default:
			s.Failure = FailTimeout
		}
	}

	s.AdIntensity = pickIntensity(rng, cfg.AdIntensityWeights)

	// Privacy banner, CMP and gating.
	s.HasBanner = rng.Float64() < cfg.BannerRate[region]
	if s.HasBanner {
		s.ObscureBanner = rng.Float64() < cfg.ObscureBannerRate
		if rng.Float64() < cfg.CMPRate {
			cmp := cmpdb.Pick(rng)
			s.CMP = cmp.Name
			s.CMPMisconfigured = rng.Float64() < cmp.MisconfigRate
			s.Gated = !s.CMPMisconfigured
		} else {
			s.Gated = rng.Float64() < cfg.CustomGatedRate
		}
	}

	s.AdsPreConsent = rng.Float64() < cfg.AdsPreConsentRate[region]

	// Google Tag Manager and the §4 anomaly sources.
	s.HasGTM = rng.Float64() < cfg.GTMRate
	if s.HasGTM && rng.Float64() < cfg.GTMTopicsRate {
		s.GTMTopicsCall = true
		s.GTMConsentMode = rng.Float64() < cfg.GTMConsentModeRate
	}
	if !s.GTMTopicsCall {
		s.OtherLibTopicsCall = rng.Float64() < cfg.OtherLibTopicsRate
	}

	// Same-organisation redirects concentrate on sites whose tag
	// configurations call the Topics API (see DESIGN.md): the paper's
	// 72%/28% split is measured on anomalous calls only.
	redirectRate := 0.015
	if s.GTMTopicsCall || s.OtherLibTopicsCall {
		redirectRate = cfg.SisterRedirectRate
	}
	if rng.Float64() < redirectRate {
		s.RedirectTo = nm.sisterDomain(rng, s.Domain)
	}

	// Ad platforms.
	for _, p := range embeddable {
		prob := p.ReachIn(region)
		if p.Domain != "google-analytics.com" { // analytics presence is ad-independent
			prob = prob * s.AdIntensity / meanIntensity
		}
		if prob > 1 {
			prob = 1
		}
		if rng.Float64() < prob {
			s.Platforms = append(s.Platforms, p.Domain)
		}
	}

	// Long-tail third parties and first-party resources.
	n := cfg.LongTailPerSiteMin
	if spread := cfg.LongTailPerSiteMax - cfg.LongTailPerSiteMin; spread > 0 {
		n += rng.IntN(spread + 1)
	}
	seen := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		h := pool.pick(rng)
		if !seen[h] {
			seen[h] = true
			s.LongTail = append(s.LongTail, h)
		}
	}
	s.FirstPartyResources = cfg.FirstPartyResourcesMin +
		rng.IntN(cfg.FirstPartyResourcesMax-cfg.FirstPartyResourcesMin+1)
	return s
}

// distillerySite is the fixed site for the attested-but-not-allowed
// first party of §2.4: reachable, with an acceptable English banner, no
// GTM, and only its own Topics integration.
func distillerySite(rank int) *Site {
	return &Site{
		Rank:                rank,
		Domain:              "distillery.com",
		Region:              etld.RegionCom,
		Language:            "en",
		AdIntensity:         1,
		Reachable:           true,
		HasBanner:           true,
		AdsPreConsent:       true,
		Platforms:           []string{"distillery.com"},
		FirstPartyResources: 8,
	}
}

func pickIntensity(rng *rand.Rand, weights map[float64]float64) float64 {
	// Iterate levels in a fixed order for determinism.
	levels := []float64{0, 0.7, 1.0, 1.5}
	var total float64
	for _, l := range levels {
		total += weights[l]
	}
	x := rng.Float64() * total
	for _, l := range levels {
		if x < weights[l] {
			return l
		}
		x -= weights[l]
	}
	return 1
}

// meanAdIntensity is the weighted mean intensity level. It sums over
// the sorted levels, and the explicit conversion rounds each product
// before the add, so no map order and no fused multiply-add can move
// the result.
func meanAdIntensity(weights map[float64]float64) float64 {
	var sum, w float64
	for _, level := range slices.Sorted(maps.Keys(weights)) {
		p := weights[level]
		sum += float64(level * p)
		w += p
	}
	if w == 0 {
		return 1
	}
	return sum / w
}

// longTailPool is the two-tier universe of ordinary third parties: a
// small popular tier absorbing most embeddings plus a broad tail, so a
// full crawl observes ≈19.5k unique third parties (§2.4) while scaled
// crawls observe proportionally fewer.
type longTailPool struct {
	hosts   []string
	popular int // first N hosts form the popular tier
}

// popularShare is the fraction of embeddings drawn from the popular
// tier.
const popularShare = 0.6

func makeLongTailPool(cfg Config) *longTailPool {
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x5EED10))
	p := &longTailPool{popular: cfg.LongTailPool / 12}
	seen := make(map[string]bool, cfg.LongTailPool)
	for len(p.hosts) < cfg.LongTailPool {
		h := longTailHost(rng, len(p.hosts))
		if !seen[h] {
			seen[h] = true
			p.hosts = append(p.hosts, h)
		}
	}
	return p
}

func (p *longTailPool) pick(rng *rand.Rand) string {
	if rng.Float64() < popularShare {
		return p.hosts[rng.IntN(p.popular)]
	}
	return p.hosts[p.popular+rng.IntN(len(p.hosts)-p.popular)]
}
