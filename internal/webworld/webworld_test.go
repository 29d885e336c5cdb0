package webworld

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/netmeasure/topicscope/internal/etld"
)

// testWorld generates a moderately sized world once for the whole
// package test run.
var testWorld = Generate(Config{Seed: 7, NumSites: 8000})

func TestGenerateShape(t *testing.T) {
	w := testWorld
	if len(w.Sites) != 8000 {
		t.Fatalf("sites = %d", len(w.Sites))
	}
	st := w.Stats()
	t.Logf("world: %s", st)

	if frac := float64(st.Reachable) / float64(st.Sites); math.Abs(frac-0.868) > 0.02 {
		t.Errorf("reachable fraction %.3f, want ≈0.868 (paper: 43,405/50,000)", frac)
	}
	if frac := float64(st.WithBanner) / float64(st.Sites); frac < 0.45 || frac > 0.65 {
		t.Errorf("banner fraction %.3f out of plausible range", frac)
	}
	if frac := float64(st.GTMTopics) / float64(st.Sites); math.Abs(frac-0.62*0.27) > 0.03 {
		t.Errorf("GTM-topics fraction %.3f, want ≈%.3f", frac, 0.62*0.27)
	}
	if st.AdFree == 0 {
		t.Error("no ad-free sites generated")
	}
}

func TestDomainsUniqueAndRanked(t *testing.T) {
	w := testWorld
	seen := make(map[string]bool, len(w.Sites))
	for i, s := range w.Sites {
		if s.Rank != i+1 {
			t.Fatalf("rank %d at index %d", s.Rank, i)
		}
		if seen[s.Domain] {
			t.Errorf("duplicate site domain %q", s.Domain)
		}
		seen[s.Domain] = true
		if s.RedirectTo != "" {
			if seen[s.RedirectTo] {
				t.Errorf("sister domain %q collides", s.RedirectTo)
			}
			seen[s.RedirectTo] = true
		}
	}
}

func TestRegionConsistency(t *testing.T) {
	for _, s := range testWorld.Sites {
		if got := etld.RegionOf(s.Domain); got != s.Region {
			t.Errorf("site %s: stored region %v but TLD says %v", s.Domain, s.Region, got)
		}
	}
}

func TestRegionShares(t *testing.T) {
	st := testWorld.Stats()
	want := testWorld.Cfg.RegionShare
	for _, r := range etld.Regions {
		got := float64(st.ByRegion[r]) / float64(st.Sites)
		if math.Abs(got-want[r]) > 0.02 {
			t.Errorf("region %v share %.3f, want ≈%.3f", r, got, want[r])
		}
	}
}

func TestSisterDomainsDifferSecondLevel(t *testing.T) {
	n := 0
	for _, s := range testWorld.Sites {
		if s.RedirectTo == "" {
			continue
		}
		n++
		if etld.SameSecondLevel(s.Domain, s.RedirectTo) {
			t.Errorf("sister %q shares second-level label with %q", s.RedirectTo, s.Domain)
		}
		if got, ok := testWorld.SiteByDomain(s.RedirectTo); !ok || got != s {
			t.Errorf("sister %q does not resolve to its site", s.RedirectTo)
		}
		if s.EffectiveDomain() != s.RedirectTo {
			t.Errorf("EffectiveDomain = %q", s.EffectiveDomain())
		}
	}
	if n == 0 {
		t.Error("no redirecting sites generated")
	}
}

func TestRedirectsConcentrateOnAnomalousSites(t *testing.T) {
	// The §4 mismatch share is measured on anomalous calls: redirecting
	// sites must be much more frequent among GTM-topics sites.
	var anomalous, anomalousRedir, plain, plainRedir int
	for _, s := range testWorld.Sites {
		if s.GTMTopicsCall || s.OtherLibTopicsCall {
			anomalous++
			if s.RedirectTo != "" {
				anomalousRedir++
			}
		} else {
			plain++
			if s.RedirectTo != "" {
				plainRedir++
			}
		}
	}
	ra := float64(anomalousRedir) / float64(anomalous)
	rp := float64(plainRedir) / float64(plain)
	if math.Abs(ra-0.28) > 0.05 {
		t.Errorf("redirect rate among anomalous sites %.3f, want ≈0.28", ra)
	}
	if rp > 0.05 {
		t.Errorf("redirect rate among plain sites %.3f, want small", rp)
	}
}

func TestGatingRules(t *testing.T) {
	for _, s := range testWorld.Sites {
		if s.CMP != "" && !s.HasBanner {
			t.Errorf("site %s has CMP without banner", s.Domain)
		}
		if s.CMP != "" && !s.CMPMisconfigured && !s.Gated {
			t.Errorf("site %s: healthy CMP must gate", s.Domain)
		}
		if s.CMP != "" && s.CMPMisconfigured && s.Gated {
			t.Errorf("site %s: misconfigured CMP must not gate", s.Domain)
		}
		if !s.HasBanner && s.Gated {
			t.Errorf("site %s gated without banner", s.Domain)
		}
		if s.GTMTopicsCall && !s.HasGTM {
			t.Errorf("site %s: GTM call without GTM", s.Domain)
		}
		if s.GTMTopicsCall && s.OtherLibTopicsCall {
			t.Errorf("site %s: both anomaly sources set", s.Domain)
		}
	}
}

func TestDistillerySitePresent(t *testing.T) {
	s, ok := testWorld.SiteByDomain("distillery.com")
	if !ok {
		t.Fatal("distillery.com not in world")
	}
	if !s.Reachable || !s.HasBanner || s.ObscureBanner || s.Language != "en" {
		t.Errorf("distillery.com must be crawlable and acceptable: %+v", s)
	}
	if len(s.Platforms) != 1 || s.Platforms[0] != "distillery.com" {
		t.Errorf("distillery.com platforms = %v", s.Platforms)
	}
	if testWorld.Classify("distillery.com") != HostSite {
		t.Error("distillery.com should classify as a site")
	}
}

func TestPlatformPresenceOrdering(t *testing.T) {
	// Figure 2's ordering: google-analytics > doubleclick > bing >
	// rubiconproject ... criteo; check the big separations hold.
	count := func(domain string) int {
		n := 0
		for _, s := range testWorld.Sites {
			for _, p := range s.Platforms {
				if p == domain {
					n++
				}
			}
		}
		return n
	}
	ga, dc, bing, rubicon, criteo, cpx := count("google-analytics.com"),
		count("doubleclick.net"), count("bing.com"),
		count("rubiconproject.com"), count("criteo.com"), count("cpx.to")
	if !(ga > dc && dc > bing && bing > rubicon && rubicon > cpx) {
		t.Errorf("presence ordering broken: ga=%d dc=%d bing=%d rubicon=%d cpx=%d",
			ga, dc, bing, rubicon, cpx)
	}
	if frac := float64(dc) / float64(len(testWorld.Sites)); math.Abs(frac-0.56) > 0.05 {
		t.Errorf("doubleclick presence %.3f, want ≈0.56 (Fig 2: 8,293/14,719)", frac)
	}
	if criteo == 0 || rubicon == 0 {
		t.Error("mid-tier platforms absent")
	}
}

func TestYandexRegionality(t *testing.T) {
	present := map[etld.Region]int{}
	sites := map[etld.Region]int{}
	for _, s := range testWorld.Sites {
		sites[s.Region]++
		for _, p := range s.Platforms {
			if p == "yandex.com" {
				present[s.Region]++
			}
		}
	}
	if present[etld.RegionJapan] != 0 {
		t.Errorf("yandex present on %d .jp sites, Figure 6 shows none", present[etld.RegionJapan])
	}
	ruRate := float64(present[etld.RegionRussia]) / float64(sites[etld.RegionRussia])
	comRate := float64(present[etld.RegionCom]) / float64(sites[etld.RegionCom])
	if ruRate < 5*comRate {
		t.Errorf("yandex .ru rate %.3f not dominating .com rate %.3f", ruRate, comRate)
	}
}

func TestClassify(t *testing.T) {
	w := testWorld
	cases := []struct {
		host string
		want HostKind
	}{
		{w.Sites[0].Domain, HostSite},
		{"criteo.com", HostPlatform},
		{"onetrust.com", HostCMP},
		{GTMDomain, HostGTM},
		{"definitely-not-in-world.example", HostUnknown},
	}
	for _, c := range cases {
		if got := w.Classify(c.host); got != c.want {
			t.Errorf("Classify(%q) = %v, want %v", c.host, got, c.want)
		}
	}
	// A long-tail host classifies as such.
	for _, s := range w.Sites {
		if len(s.LongTail) > 0 {
			if got := w.Classify(s.LongTail[0]); got != HostLongTail {
				t.Errorf("Classify(long tail %q) = %v", s.LongTail[0], got)
			}
			break
		}
	}
	if name, ok := w.CMPForHost("cookiebot.com"); !ok || name != "Cookiebot" {
		t.Errorf("CMPForHost = %q, %v", name, ok)
	}
}

func TestDeterminism(t *testing.T) {
	a := Generate(Config{Seed: 11, NumSites: 300})
	b := Generate(Config{Seed: 11, NumSites: 300})
	for i := range a.Sites {
		sa, sb := a.Sites[i], b.Sites[i]
		if sa.Domain != sb.Domain || sa.HasBanner != sb.HasBanner ||
			sa.CMP != sb.CMP || sa.GTMTopicsCall != sb.GTMTopicsCall ||
			strings.Join(sa.Platforms, ",") != strings.Join(sb.Platforms, ",") {
			t.Fatalf("site %d differs between runs", i)
		}
	}
	c := Generate(Config{Seed: 12, NumSites: 300})
	same := 0
	for i := range a.Sites {
		if a.Sites[i].Domain == c.Sites[i].Domain {
			same++
		}
	}
	if same == len(a.Sites) {
		t.Error("different seeds produced identical worlds")
	}
}

func TestSiteDomainsNeverCollideWithInfrastructure(t *testing.T) {
	for _, s := range testWorld.Sites {
		if s.Domain == "distillery.com" {
			continue
		}
		if _, ok := testWorld.Catalog.ByDomain(s.Domain); ok {
			t.Errorf("site %q collides with a platform domain", s.Domain)
		}
		if _, ok := testWorld.CMPForHost(s.Domain); ok {
			t.Errorf("site %q collides with a CMP domain", s.Domain)
		}
	}
}

func TestTrancoListMatchesWorld(t *testing.T) {
	l := testWorld.List()
	if l.Len() != len(testWorld.Sites) {
		t.Fatalf("list len %d", l.Len())
	}
	if l.Entries[0].Rank != 1 || l.Entries[0].Domain != testWorld.Sites[0].Domain {
		t.Error("list head mismatch")
	}
}

func TestWorldSpecRoundTrip(t *testing.T) {
	small := Generate(Config{Seed: 5, NumSites: 150})
	var buf bytes.Buffer
	if err := small.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(got.Sites) != len(small.Sites) {
		t.Fatalf("site count %d vs %d", len(got.Sites), len(small.Sites))
	}
	for i := range small.Sites {
		a, b := small.Sites[i], got.Sites[i]
		if a.Domain != b.Domain || a.HasBanner != b.HasBanner || a.CMP != b.CMP ||
			a.GTMTopicsCall != b.GTMTopicsCall || a.RedirectTo != b.RedirectTo ||
			!reflect.DeepEqual(a.Platforms, b.Platforms) ||
			!reflect.DeepEqual(a.LongTail, b.LongTail) {
			t.Fatalf("site %d differs after round trip", i)
		}
	}
	// Indexes are rebuilt: classification still works.
	if got.Classify(small.Sites[0].Domain) != HostSite {
		t.Error("site index lost")
	}
	for _, s := range small.Sites {
		if len(s.LongTail) > 0 {
			if got.Classify(s.LongTail[0]) != HostLongTail {
				t.Error("long-tail index lost")
			}
			break
		}
	}
	if got.Classify("criteo.com") != HostPlatform {
		t.Error("catalog lost")
	}
}

func TestWorldSpecRejectsDamage(t *testing.T) {
	small := Generate(Config{Seed: 5, NumSites: 20})
	var buf bytes.Buffer
	small.Save(&buf)
	good := buf.String()

	cases := map[string]string{
		"not json":    "{broken",
		"bad version": strings.Replace(good, `"formatVersion":1`, `"formatVersion":9`, 1),
	}
	for name, in := range cases {
		if _, err := Load(strings.NewReader(in)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestGenerateRangeMatchesFull(t *testing.T) {
	cfg := Config{Seed: 7, NumSites: 8000}
	full := testWorld
	const lo, hi = 3001, 4500
	win := GenerateRange(cfg, lo, hi)

	if len(win.Sites) != hi-lo+1 {
		t.Fatalf("window sites = %d, want %d", len(win.Sites), hi-lo+1)
	}
	for i, got := range win.Sites {
		want := full.Sites[lo-1+i]
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rank %d differs:\n got %+v\nwant %+v", want.Rank, got, want)
		}
	}

	// The window's rank list is the corresponding slice of the full list.
	wantEntries := full.List().Entries[lo-1 : hi]
	if !reflect.DeepEqual(win.List().Entries, wantEntries) {
		t.Fatal("window rank list differs from full list slice")
	}

	// Global host universes stay intact: classification of any host the
	// window's pages reference matches the full world's view, except for
	// sites outside the window (unknown to the shard, by design).
	for _, s := range win.Sites {
		if win.Classify(s.Domain) != HostSite {
			t.Errorf("window misclassifies own site %q", s.Domain)
		}
		for _, p := range s.Platforms {
			if got, want := win.Classify(p), full.Classify(p); got != want {
				t.Errorf("platform %q: window %v, full %v", p, got, want)
			}
		}
		for _, h := range s.LongTail {
			if got, want := win.Classify(h), full.Classify(h); got != want {
				t.Errorf("long-tail %q: window %v, full %v", h, got, want)
			}
		}
	}
}

func TestGenerateRangeClamps(t *testing.T) {
	cfg := Config{Seed: 3, NumSites: 50}
	w := GenerateRange(cfg, -5, 500)
	if len(w.Sites) != 50 {
		t.Fatalf("clamped range sites = %d, want 50", len(w.Sites))
	}
	if !reflect.DeepEqual(w.Sites, Generate(cfg).Sites) {
		t.Fatal("clamped full range differs from Generate")
	}
}

// TestMeanAdIntensityOrderIndependent sums the default intensity weights
// in every one of their 24 orders, each product rounded before the add:
// all must give meanAdIntensity's value, so summing over the sorted
// levels published the same world as any map order did.
func TestMeanAdIntensityOrderIndependent(t *testing.T) {
	weights := Config{}.withDefaults().AdIntensityWeights
	want := meanAdIntensity(weights)
	var levels []float64
	for level := range weights {
		levels = append(levels, level)
	}
	var permute func(k int)
	orders := 0
	permute = func(k int) {
		if k == len(levels) {
			orders++
			var sum, w float64
			for _, level := range levels {
				sum += float64(level * weights[level])
				w += weights[level]
			}
			if got := sum / w; got != want {
				t.Errorf("levels summed in order %v give %v, meanAdIntensity %v", levels, got, want)
			}
			return
		}
		for i := k; i < len(levels); i++ {
			levels[k], levels[i] = levels[i], levels[k]
			permute(k + 1)
			levels[k], levels[i] = levels[i], levels[k]
		}
	}
	permute(0)
	if orders != 24 {
		t.Fatalf("checked %d orders, want 24", orders)
	}
}
