package cmpdb

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestCatalogHasFifteenCMPs(t *testing.T) {
	// Figure 7 plots exactly 15 consent managers.
	if got := len(All()); got != 15 {
		t.Errorf("catalog has %d CMPs, Figure 7 has 15", got)
	}
}

func TestPlottingOrderMatchesPaper(t *testing.T) {
	want := []string{
		"OneTrust", "HubSpot", "LiveRamp", "Cookiebot", "TrustArc",
		"Didomi", "Sourcepoint", "Osano", "Iubenda", "CookieYes",
		"Usercentrics", "CookieScript", "Civic", "Cookie Information", "SFBX",
	}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Names()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestByName(t *testing.T) {
	c, ok := ByName("hubspot")
	if !ok || c.Name != "HubSpot" {
		t.Errorf("ByName(hubspot) = %+v, %v", c, ok)
	}
	if _, ok := ByName("NotACMP"); ok {
		t.Error("unknown CMP resolved")
	}
}

func TestByDomain(t *testing.T) {
	cases := []struct {
		domain string
		want   string
		ok     bool
	}{
		{"onetrust.com", "OneTrust", true},
		{"cdn.cookielaw.onetrust.com", "OneTrust", true},
		{"cookiebot.com", "Cookiebot", true},
		{"consent.cookiebot.com", "Cookiebot", true},
		{"evilonetrust.com", "", false},
		{"example.com", "", false},
	}
	for _, c := range cases {
		got, ok := ByDomain(c.domain)
		if ok != c.ok || (ok && got.Name != c.want) {
			t.Errorf("ByDomain(%q) = %+v, %v; want %q, %v", c.domain, got, ok, c.want, c.ok)
		}
	}
}

// TestByDomainCatalog matches every catalog domain and a subdomain of
// each, and rejects the lookalike "evil-<domain>", which ends with the
// domain but not at a label boundary.
func TestByDomainCatalog(t *testing.T) {
	for _, c := range All() {
		for _, tc := range []struct {
			host string
			ok   bool
		}{
			{c.Domain, true},
			{"cdn." + c.Domain, true},
			{"evil-" + c.Domain, false},
		} {
			got, ok := ByDomain(tc.host)
			if ok != tc.ok || (ok && got.Name != c.Name) {
				t.Errorf("ByDomain(%q) = %q, %v; want %q, %v", tc.host, got.Name, ok, c.Name, tc.ok)
			}
		}
	}
}

func TestHubSpotAndLiveRampElevated(t *testing.T) {
	// The paper: P(questionable | HubSpot) ≈ 12%, "twice as big as the
	// average probability. The same holds true for Liveramp."
	base := BaselineMisconfigRate()
	for _, name := range []string{"HubSpot", "LiveRamp"} {
		c, _ := ByName(name)
		if c.MisconfigRate < 1.8*base {
			t.Errorf("%s misconfig rate %.3f not ≈2× baseline %.3f", name, c.MisconfigRate, base)
		}
	}
	one, _ := ByName("OneTrust")
	if one.MisconfigRate > 1.3*base {
		t.Errorf("OneTrust misconfig rate %.3f should be near baseline %.3f", one.MisconfigRate, base)
	}
}

func TestPickFollowsShares(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 2))
	counts := map[string]int{}
	const n = 200000
	for i := 0; i < n; i++ {
		counts[Pick(rng).Name]++
	}
	total := totalShare()
	for _, c := range All() {
		got := float64(counts[c.Name]) / n
		want := c.Share / total
		if math.Abs(got-want) > 0.01 {
			t.Errorf("Pick frequency for %s = %.3f, want %.3f", c.Name, got, want)
		}
	}
}

func TestSharesSumToOne(t *testing.T) {
	if s := totalShare(); math.Abs(s-1) > 0.05 {
		t.Errorf("shares sum to %f", s)
	}
}

func TestValidatePanicsOnBadCatalog(t *testing.T) {
	orig := catalog
	defer func() { catalog = orig }()

	catalog = []CMP{{Name: "", Domain: "x.com", Share: 0.5, MisconfigRate: 0.05}}
	assertPanic(t, "empty name")

	catalog = []CMP{
		{Name: "A", Domain: "a.com", Share: 0.5, MisconfigRate: 0.05},
		{Name: "A", Domain: "b.com", Share: 0.5, MisconfigRate: 0.05},
	}
	assertPanic(t, "duplicate")

	catalog = []CMP{{Name: "A", Domain: "a.com", Share: 0.5, MisconfigRate: 0.05}}
	assertPanic(t, "shares not summing to 1")
}

func assertPanic(t *testing.T, what string) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("validate did not panic for %s", what)
		}
	}()
	validate()
}
