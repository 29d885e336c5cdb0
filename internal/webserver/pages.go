package webserver

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"

	"github.com/netmeasure/topicscope/internal/etld"

	"github.com/netmeasure/topicscope/internal/cmpdb"
	"github.com/netmeasure/topicscope/internal/privaccept"
	"github.com/netmeasure/topicscope/internal/webworld"
)

// renderBufs recycles the buffers landing pages render into,
// so a render costs one exact-size allocation: the cache keeps that
// copy for the rest of the campaign, and spare capacity would stay
// resident with it.
var renderBufs = sync.Pool{New: func() any { return new([]byte) }}

// renderSitePage renders a landing page into a pooled buffer and
// returns an exact-size copy of it.
func (s *Server) renderSitePage(site *webworld.Site, host string, consented, eu bool) []byte {
	bp := renderBufs.Get().(*[]byte)
	*bp = s.appendSitePage((*bp)[:0], site, host, consented, eu)
	page := bytes.Clone(*bp)
	renderBufs.Put(bp)
	return page
}

// appendSitePage appends a site's landing page for the given consent
// state and visitor jurisdiction to b. Non-EU visitors see the banner
// only on EU sites (EU publishers apply the GDPR to everyone; the rest
// geo-fence), and non-gated pages serve their ad stack immediately —
// the behaviour §6 suspects a non-EU vantage would observe.
func (s *Server) appendSitePage(b []byte, site *webworld.Site, host string, consented, eu bool) []byte {
	b = append(b, "<!DOCTYPE html>\n<html>\n<head>\n"...)
	b = fmt.Appendf(b, "  <title>%s</title>\n", pageTitle(site))
	b = fmt.Appendf(b, "  <meta charset=\"utf-8\">\n  <meta name=\"language\" content=%q>\n", site.Language)

	// First-party subresources.
	for i := 0; i < site.FirstPartyResources; i++ {
		switch i % 3 {
		case 0:
			b = fmt.Appendf(b, "  <link rel=\"stylesheet\" href=\"/static/%d.css\">\n", i)
		case 1:
			b = fmt.Appendf(b, "  <script src=\"/static/%d.js\"></script>\n", i)
		default:
			b = fmt.Appendf(b, "  <img src=\"/static/%d.png\">\n", i)
		}
	}

	// CMP loader: its domain on the page is the Wappalyzer-style CMP
	// fingerprint Figure 7 relies on.
	if site.CMP != "" {
		if cmp, ok := cmpdb.ByName(site.CMP); ok {
			b = fmt.Appendf(b, "  <script src=\"//%s/consent.js\"></script>\n", cmp.Domain)
			b = fmt.Appendf(b, "  <link rel=\"stylesheet\" href=\"//%s/banner.css\">\n", cmp.Domain)
		}
	}

	// Google Tag Manager, included the canonical (and origin-confusing)
	// way: a <script src> directly in the page, per Figure 4.
	if site.HasGTM {
		b = fmt.Appendf(b, "  <script src=\"//%s/gtm.js?id=GTM-%s\"></script>\n",
			webworld.GTMDomain, gtmContainerID(site.Domain))
	}
	if site.OtherLibTopicsCall {
		b = append(b, "  <script src=\"/js/ads-lib.js\"></script>\n"...)
	}
	b = append(b, "</head>\n<body>\n"...)

	// Privacy banner (first visit only; geo-fenced for non-EU visitors).
	showBanner := site.HasBanner && (eu || site.Region == etld.RegionEU)
	if showBanner && !consented {
		b = appendBanner(b, site)
	}

	b = fmt.Appendf(b, "  <header><h1>%s</h1></header>\n", pageTitle(site))
	b = fmt.Appendf(b, "  <main><p>Welcome to %s — ranked #%d. Fresh content every day.</p><a href=\"/privacy\">Privacy</a></main>\n",
		site.Domain, site.Rank)

	// Ad-platform tags: before consent they load only where the site's
	// gating (CMP or custom) and region practices let them — the
	// behaviour whose per-CMP failure rate Figure 7 measures. A non-EU
	// visitor on a geo-fenced site carries no banner obligation at all,
	// so the stack loads unconditionally.
	if consented || site.LoadsAdsPreConsent() || (!eu && !showBanner) {
		for _, domain := range site.Platforms {
			b = fmt.Appendf(b, "  <script src=\"//%s/tag.js\"></script>\n", domain)
		}
	}

	// Long-tail third parties load regardless of consent (fonts, CDNs,
	// widgets) — they dominate the §2.4 unique-third-party count.
	for i, h := range site.LongTail {
		if i%2 == 0 {
			b = fmt.Appendf(b, "  <script src=\"//%s/w.js\"></script>\n", h)
		} else {
			b = fmt.Appendf(b, "  <img src=\"//%s/px.gif\">\n", h)
		}
	}

	return append(b, "</body>\n</html>\n"...)
}

func pageTitle(site *webworld.Site) string {
	label := site.Domain
	if i := strings.IndexByte(label, '.'); i > 0 {
		label = label[:i]
	}
	return titleCase(strings.ReplaceAll(label, "-", " "))
}

// gtmContainerID derives a stable GTM container id from the site.
func gtmContainerID(domain string) string {
	h := fnv.New32a()
	h.Write([]byte(domain))
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
	v := h.Sum32()
	var id [6]byte
	for i := range id {
		id[i] = alphabet[v%26]
		v /= 26
	}
	return string(id[:])
}

// bannerTexts provides banner copy and accept wording for every world
// language. Supported languages reuse privaccept's first (longest)
// phrase so detection genuinely exercises the keyword matcher;
// unsupported languages use native wording Priv-Accept cannot match —
// reproducing its known failure mode.
var bannerTexts = map[string]struct{ notice, accept, reject string }{
	"en": {"We use cookies to personalise content and ads.", "", "Reject all"},
	"fr": {"Nous utilisons des cookies pour personnaliser le contenu.", "", "Tout refuser"},
	"es": {"Utilizamos cookies para personalizar el contenido.", "", "Rechazar todo"},
	"de": {"Wir verwenden Cookies, um Inhalte zu personalisieren.", "", "Alle ablehnen"},
	"it": {"Utilizziamo i cookie per personalizzare i contenuti.", "", "Rifiuta tutto"},
	"ja": {"コンテンツをパーソナライズするためにクッキーを使用します。", "同意する", "拒否する"},
	"ru": {"Мы используем файлы cookie для персонализации контента.", "Принять все", "Отклонить"},
	"nl": {"Wij gebruiken cookies om inhoud te personaliseren.", "Alles toestaan", "Alles weigeren"},
	"pl": {"Używamy plików cookie do personalizacji treści.", "Zaakceptuj wszystkie", "Odrzuć"},
	"sv": {"Vi använder cookies för att anpassa innehållet.", "Godkänn alla", "Avvisa alla"},
	"pt": {"Usamos cookies para personalizar o conteúdo.", "Aceitar tudo", "Rejeitar tudo"},
	"cs": {"Používáme cookies k personalizaci obsahu.", "Přijmout vše", "Odmítnout"},
	"da": {"Vi bruger cookies til at tilpasse indholdet.", "Tillad alle", "Afvis alle"},
	"fi": {"Käytämme evästeitä sisällön mukauttamiseen.", "Hyväksy kaikki", "Hylkää kaikki"},
	"tr": {"İçeriği kişiselleştirmek için çerezler kullanıyoruz.", "Tümünü onayla", "Reddet"},
}

// obscureAccept is wording outside Priv-Accept's keyword lists, used by
// the ObscureBanner sites to model its ≈5–8% miss rate.
const obscureAccept = "Continue with recommended settings"

// appendBanner appends the consent banner in the site's language.
func appendBanner(b []byte, site *webworld.Site) []byte {
	texts, ok := bannerTexts[site.Language]
	if !ok {
		texts = bannerTexts["en"]
	}
	accept := texts.accept
	if accept == "" {
		// Supported language: use the canonical Priv-Accept phrase,
		// title-cased as real banners render it.
		accept = titleCase(privaccept.AcceptWords[site.Language][0])
	}
	if site.ObscureBanner {
		accept = obscureAccept
	}
	return fmt.Appendf(b, `  <div id="privacy-banner" class="cookie-banner" lang=%q>
    <p>%s</p>
    <button id="pa-accept" data-consent="accept">%s</button>
    <button id="pa-reject" data-consent="reject">%s</button>
  </div>
`, site.Language, texts.notice, accept, texts.reject)
}

// titleCase upper-cases the first letter of each space-separated word.
func titleCase(s string) string {
	words := strings.Fields(s)
	for i, w := range words {
		if w[0] >= 'a' && w[0] <= 'z' {
			words[i] = string(w[0]-32) + w[1:]
		}
	}
	return strings.Join(words, " ")
}
