// Package cmpdb catalogues Consent Management Platforms (CMPs).
//
// Paper §5: CMPs are commercial products that implement Privacy Banners
// and gate embedded third parties until the user consents. The paper
// identifies the CMP in use on each website via its domain (the
// Wappalyzer list) and shows in Figure 7 that questionable Topics API
// calls are roughly independent of the CMP — except HubSpot (≈3× over-
// represented among questionable calls; P(questionable|HubSpot) ≈ 12%,
// twice the average) and LiveRamp (similarly elevated).
//
// Each catalog entry carries the two rates the synthetic web needs: the
// CMP's market share among CMP-using sites, and its misconfiguration
// rate — the probability that a site using it still lets third parties
// run before consent ("shallow-but-in-good-faith" deployments, bad
// defaults, or an incomplete configuration).
package cmpdb

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"github.com/netmeasure/topicscope/internal/etld"
)

// CMP describes one consent-management platform.
type CMP struct {
	// Name is the display name used on the Figure 7 axis.
	Name string
	// Domain is the domain whose presence identifies the CMP on a page,
	// as in the Wappalyzer fingerprint list.
	Domain string
	// Share is the CMP's market share among CMP-using websites; catalog
	// shares sum to 1.
	Share float64
	// MisconfigRate is the probability a site deploying this CMP still
	// lets ad tags (and hence the Topics API) run in the Before-Accept
	// visit: incomplete configurations, bad defaults, or simply no
	// Topics-aware gating — the paper notes "the complexity of
	// configuring and managing the privacy options has yet to properly
	// integrate the support for the Topics API" (§5).
	MisconfigRate float64
}

// catalog lists the 15 CMPs of Figure 7 in the paper's plotting order.
var catalog = []CMP{
	{Name: "OneTrust", Domain: "onetrust.com", Share: 0.22, MisconfigRate: 0.32},
	{Name: "HubSpot", Domain: "hubspot.com", Share: 0.07, MisconfigRate: 0.85},
	{Name: "LiveRamp", Domain: "liveramp.com", Share: 0.05, MisconfigRate: 0.85},
	{Name: "Cookiebot", Domain: "cookiebot.com", Share: 0.11, MisconfigRate: 0.33},
	{Name: "TrustArc", Domain: "trustarc.com", Share: 0.06, MisconfigRate: 0.36},
	{Name: "Didomi", Domain: "didomi.io", Share: 0.07, MisconfigRate: 0.30},
	{Name: "Sourcepoint", Domain: "sourcepoint.com", Share: 0.05, MisconfigRate: 0.36},
	{Name: "Osano", Domain: "osano.com", Share: 0.04, MisconfigRate: 0.38},
	{Name: "Iubenda", Domain: "iubenda.com", Share: 0.06, MisconfigRate: 0.30},
	{Name: "CookieYes", Domain: "cookieyes.com", Share: 0.06, MisconfigRate: 0.36},
	{Name: "Usercentrics", Domain: "usercentrics.eu", Share: 0.07, MisconfigRate: 0.30},
	{Name: "CookieScript", Domain: "cookie-script.com", Share: 0.04, MisconfigRate: 0.36},
	{Name: "Civic", Domain: "civiccomputing.com", Share: 0.03, MisconfigRate: 0.36},
	{Name: "Cookie Information", Domain: "cookieinformation.com", Share: 0.03, MisconfigRate: 0.33},
	{Name: "SFBX", Domain: "sfbx.io", Share: 0.03, MisconfigRate: 0.36},
}

// All returns the catalog in the paper's plotting order. The slice is
// shared; do not modify it.
func All() []CMP { return catalog }

// Names returns the CMP names in plotting order.
func Names() []string {
	out := make([]string, len(catalog))
	for i, c := range catalog {
		out[i] = c.Name
	}
	return out
}

// ByName finds a CMP by display name (case-insensitive).
func ByName(name string) (CMP, bool) {
	for _, c := range catalog {
		if strings.EqualFold(c.Name, name) {
			return c, true
		}
	}
	return CMP{}, false
}

// ByDomain identifies the CMP from a domain seen on a page, matching the
// Wappalyzer-style fingerprinting the paper uses ("We rely on the list of
// the most widespread CMPs (identified by their domain name)").
func ByDomain(domain string) (CMP, bool) {
	domain = etld.Normalize(domain)
	for _, c := range catalog {
		if domainOrSubdomain(domain, c.Domain) {
			return c, true
		}
	}
	return CMP{}, false
}

// domainOrSubdomain reports whether host is domain or one of its
// subdomains, without building "."+domain.
func domainOrSubdomain(host, domain string) bool {
	n := len(host) - len(domain)
	return strings.HasSuffix(host, domain) && (n == 0 || n > 0 && host[n-1] == '.')
}

// Pick draws a CMP according to market share.
func Pick(rng *rand.Rand) CMP {
	x := rng.Float64() * totalShare()
	for _, c := range catalog {
		if x < c.Share {
			return c
		}
		x -= c.Share
	}
	return catalog[len(catalog)-1]
}

// BaselineMisconfigRate returns the catalog-average misconfiguration
// rate weighted by share.
func BaselineMisconfigRate() float64 {
	var sum, w float64
	for _, c := range catalog {
		sum += float64(c.Share * c.MisconfigRate) // rounded before the add: no FMA
		w += c.Share
	}
	return sum / w
}

func totalShare() float64 {
	var s float64
	for _, c := range catalog {
		s += c.Share
	}
	return s
}

// validate panics on an inconsistent catalog; run from init so a bad
// edit fails every test immediately.
func validate() {
	seen := map[string]bool{}
	for _, c := range catalog {
		if c.Name == "" || c.Domain == "" {
			panic("cmpdb: entry with empty name or domain")
		}
		if seen[c.Name] {
			panic(fmt.Sprintf("cmpdb: duplicate CMP %q", c.Name))
		}
		seen[c.Name] = true
		if c.Share <= 0 || c.Share >= 1 {
			panic(fmt.Sprintf("cmpdb: %s share %f out of range", c.Name, c.Share))
		}
		if c.MisconfigRate < 0 || c.MisconfigRate > 0.9 {
			panic(fmt.Sprintf("cmpdb: %s misconfig rate %f out of range", c.Name, c.MisconfigRate))
		}
	}
	if s := totalShare(); s < 0.95 || s > 1.05 {
		panic(fmt.Sprintf("cmpdb: shares sum to %f, want ≈1", s))
	}
}

func init() { validate() }
