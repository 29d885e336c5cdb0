// Package webserver serves the synthetic web of internal/webworld over
// real HTTP: every hostname of the world (ranked sites, sister domains,
// ad platforms, CMPs, Google Tag Manager, long-tail third parties) is
// virtual-hosted by one handler that dispatches on the Host header.
//
// The crawler talks to this server through a transport that routes every
// hostname to the listener (see Transport), so the full network path —
// TCP, HTTP, HTML, subresource fetches, redirects, cookies, the
// Sec-Browsing-Topics / Observe-Browsing-Topics headers — is exercised
// exactly as against the live web.
package webserver

import (
	"fmt"
	"hash/fnv"

	"github.com/netmeasure/topicscope/internal/adcatalog"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/netmeasure/topicscope/internal/attestation"
	"github.com/netmeasure/topicscope/internal/etld"
	"github.com/netmeasure/topicscope/internal/webworld"
)

// ConsentCookie is the cookie a site sets once the user accepts its
// privacy policy; its presence switches rendering to the After-Accept
// state.
const ConsentCookie = "consent"

// ObserveHeader is the Topics API response header a caller sets to
// record the page visit in the browser's topics history.
const ObserveHeader = "Observe-Browsing-Topics"

// TopicsRequestHeader carries the topics on fetch/iframe calls.
const TopicsRequestHeader = "Sec-Browsing-Topics"

// VirtualTimeHeader lets the emulated browser pin each request to its
// visit's virtual time; A/B-test slot decisions use it when present.
// Simulation plumbing only — see internal/browser.
const VirtualTimeHeader = "X-Topicscope-Time"

// VantageHeader declares the visitor's jurisdiction (the simulation's
// geo-IP): sites geo-fence GDPR banners and ad gating on it.
const VantageHeader = "X-Topicscope-Vantage"

// Server renders the world.
type Server struct {
	World *webworld.World
	// Now supplies virtual time for A/B-test slot decisions; defaults to
	// time.Now.
	Now func() time.Time

	metrics Metrics

	// pages caches rendered landing pages by (site, consent, vantage).
	// A site's page is a pure function of those three — the world is
	// immutable once generated — so a double crawl renders each page
	// variant once instead of millions of times. A plain map behind an
	// RWMutex (rather than sync.Map) keeps the steady-state hit path
	// allocation-free: sync.Map.Load boxes the struct key into an
	// interface on every call. Values are []byte so the response write
	// needs no string→[]byte copy either.
	pagesMu sync.RWMutex
	pages   map[pageKey][]byte
}

// Shared pre-built header values: assigning one into the response
// header map avoids the per-request single-element slice allocation of
// Header().Set. Shared values must never be mutated; each has len ==
// cap, so an Add on top of one copies instead of writing into it.
var observeTopics = []string{"?1"}

// Fixed Content-Types, each a shared read-only header map holding only
// that header (see setContentType).
var (
	contentTypeHTML = http.Header{"Content-Type": {"text/html; charset=utf-8"}}
	contentTypeJS   = http.Header{"Content-Type": {"application/javascript"}}
	contentTypeCSS  = http.Header{"Content-Type": {"text/css"}}
	contentTypeGIF  = http.Header{"Content-Type": {"image/gif"}}
	contentTypeText = http.Header{"Content-Type": {"text/plain"}}
	contentTypeJSON = http.Header{"Content-Type": {"application/json"}}
	contentTypeProm = http.Header{"Content-Type": {"text/plain; version=0.0.4; charset=utf-8"}}
)

// setContentType sets a fixed Content-Type. When it is the response's
// first header, the in-process transport's writer takes the shared
// read-only map instead of building its own, and clones it should the
// handler ask for the header map again. Any other ResponseWriter gets
// the shared value assigned into its own map.
func setContentType(w http.ResponseWriter, ct http.Header) {
	if rw, ok := w.(*responseWriter); ok && len(rw.header) == 0 {
		rw.header, rw.shared = ct, true
		return
	}
	w.Header()["Content-Type"] = ct["Content-Type"]
}

// Fixed response bodies, shared by every request and never mutated.
var (
	pixelGIF       = []byte("GIF89a\x01\x00\x01\x00\x80\x00\x00\x00\x00\x00\x00\x00\x00!\xf9\x04\x01\x00\x00\x00\x00,\x00\x00\x00\x00\x01\x00\x01\x00\x00\x02\x02D\x01\x00;")
	staticCSS      = []byte("body{margin:0}\n")
	staticJS       = []byte("// site script\n")
	adsLibCalling  = []byte("// legacy ads helper\n#ts call\n")
	adsLibInert    = []byte("// ads helper (inert)\n")
	cmpLoader      = []byte("// consent management platform loader\n")
	cmpBannerCSS   = []byte(".cookie-banner{position:fixed;bottom:0}\n")
	gtmInert       = []byte("// gtm container (inert)\n")
	longTailWidget = []byte("// third-party widget\n")
	longTailOK     = []byte("ok\n")
)

// writeShared writes an immutable body. The in-process transport's
// writer keeps the slice instead of copying it, as Write must (fmt
// reuses its buffer once Write returns); any other ResponseWriter gets
// a plain Write.
func writeShared(w http.ResponseWriter, p []byte) {
	if rw, ok := w.(*responseWriter); ok {
		rw.writeShared(p)
		return
	}
	w.Write(p) //nolint:errcheck // a failed response write has no one to report to
}

// pageKey identifies one cached rendering of a site's landing page.
type pageKey struct {
	domain    string
	consented bool
	eu        bool
}

// cachedSitePage returns the memoized landing page, rendering on miss.
// The returned bytes are shared and must not be mutated.
//
//topicslint:hotpath zeroalloc
func (s *Server) cachedSitePage(site *webworld.Site, host string, consented, eu bool) []byte {
	key := pageKey{domain: site.Domain, consented: consented, eu: eu}
	s.pagesMu.RLock()
	page, ok := s.pages[key]
	s.pagesMu.RUnlock()
	if ok {
		return page
	}
	//topicslint:ignore hotpath cache-miss render runs once per (site, consent, vantage) key, every later request hits the byte-slice cache
	rendered := s.renderSitePage(site, host, consented, eu)
	s.pagesMu.Lock()
	if page, ok = s.pages[key]; ok {
		// Lost the render race; keep the first stored copy so every
		// caller shares one buffer.
		rendered = page
	} else {
		s.pages[key] = rendered
	}
	s.pagesMu.Unlock()
	return rendered
}

// New builds a Server over a world.
func New(w *webworld.World, now func() time.Time) *Server {
	if now == nil {
		now = time.Now
	}
	return &Server{World: w, Now: now, pages: make(map[pageKey][]byte)}
}

// ServeHTTP dispatches on the Host header.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	host := etld.Normalize(r.Host)
	kind := s.World.Classify(host)
	s.metrics.observe(kind)
	switch kind {
	case webworld.HostSite, webworld.HostSister:
		// A first party may double as a calling party (distillery.com,
		// §2.4): platform endpoints win on their dedicated paths.
		if p, ok := s.World.Catalog.ByDomain(host); ok && isPlatformPath(r.URL.Path) {
			s.servePlatform(w, r, p, host)
			return
		}
		site, _ := s.World.SiteByDomain(host)
		s.serveSite(w, r, site, host)
	case webworld.HostPlatform:
		p, _ := s.World.Catalog.ByDomain(host)
		s.servePlatform(w, r, p, host)
	case webworld.HostCMP:
		s.serveCMP(w, r)
	case webworld.HostGTM:
		s.serveGTM(w, r)
	case webworld.HostLongTail:
		s.serveLongTail(w, r)
	default:
		http.NotFound(w, r)
	}
}

// isPlatformPath reports whether the path belongs to the ad-platform
// endpoint set.
func isPlatformPath(path string) bool {
	switch path {
	case "/tag.js", "/topics-frame.html", "/ad.html", "/t", attestation.WellKnownPath:
		return true
	}
	return false
}

// requestNow resolves the effective time of a request: the browser's
// virtual timestamp when supplied, the server clock otherwise.
func (s *Server) requestNow(r *http.Request) time.Time {
	if v := r.Header.Get(VirtualTimeHeader); v != "" {
		if t, err := time.Parse(time.RFC3339Nano, v); err == nil {
			return t
		}
	}
	return s.Now()
}

// euVisitor reports whether the request comes from an EU vantage (the
// default when the header is absent — the paper's setup). Non-EU
// visitors are geo-fenced out of GDPR banners by most non-EU sites.
func euVisitor(r *http.Request) bool {
	v := r.Header.Get(VantageHeader)
	return v == "" || v == "eu"
}

// consentToken is the exact cookie pair the emulated browser sends once
// consent is granted.
const consentToken = ConsentCookie + "=1"

// hasConsent reports whether the request carries the site's consent
// cookie. It scans the raw Cookie header instead of r.Cookie — the
// net/http cookie parser allocates a *Cookie per call, and this check
// runs on every landing-page request.
//
//topicslint:hotpath zeroalloc
func hasConsent(r *http.Request) bool {
	c := r.Header.Get("Cookie")
	for c != "" {
		var part string
		if i := strings.IndexByte(c, ';'); i >= 0 {
			part, c = c[:i], c[i+1:]
		} else {
			part, c = c, ""
		}
		for len(part) > 0 && part[0] == ' ' {
			part = part[1:]
		}
		if part == consentToken {
			return true
		}
	}
	return false
}

// refererHost extracts the embedding page's host from the Referer
// header; third-party endpoints use it to know which site they are
// embedded on, as real tags do.
func refererHost(r *http.Request) string {
	ref := r.Header.Get("Referer")
	if ref == "" {
		return ""
	}
	rest, ok := strings.CutPrefix(ref, "http://")
	if !ok {
		rest, ok = strings.CutPrefix(ref, "https://")
		if !ok {
			return ""
		}
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return etld.Normalize(rest)
}

// serveSite renders a ranked website (or its sister domain).
func (s *Server) serveSite(w http.ResponseWriter, r *http.Request, site *webworld.Site, host string) {
	// The ranked domain 301-redirects to its sister when configured.
	if site.RedirectTo != "" && host == site.Domain {
		// Scheme-relative Location keeps the redirect valid over both
		// HTTP and HTTPS deployments.
		target := "//" + site.RedirectTo + r.URL.Path
		http.Redirect(w, r, target, http.StatusMovedPermanently)
		return
	}
	switch {
	case r.URL.Path == "/":
		// The landing page is the serving path's hottest endpoint:
		// set the shared Content-Type and hand over the cached bytes —
		// Header().Set and fmt.Fprint of a string each allocate per
		// request.
		setContentType(w, contentTypeHTML)
		writeShared(w, s.cachedSitePage(site, host, hasConsent(r), euVisitor(r)))
	case strings.HasPrefix(r.URL.Path, "/static/"):
		serveStatic(w, r.URL.Path)
	case r.URL.Path == "/js/ads-lib.js":
		// The non-GTM first-party library with a root-context
		// browsingTopics() call (§4's remaining anomalous sites).
		setContentType(w, contentTypeJS)
		if site.OtherLibTopicsCall {
			writeShared(w, adsLibCalling)
		} else {
			writeShared(w, adsLibInert)
		}
	case r.URL.Path == "/privacy":
		setContentType(w, contentTypeHTML)
		fmt.Fprintf(w, "<html><body><h1>Privacy policy of %s</h1></body></html>", host)
	default:
		http.NotFound(w, r)
	}
}

// servePlatform renders an ad platform's endpoints.
func (s *Server) servePlatform(w http.ResponseWriter, r *http.Request, p *adcatalog.Platform, host string) {
	switch r.URL.Path {
	case "/tag.js":
		setContentType(w, contentTypeJS)
		// The tag is rendered fresh for this request and never touched
		// again, so the writer may keep it.
		writeShared(w, s.platformTag(p, refererHost(r), s.requestNow(r)))
	case "/topics-frame.html":
		setContentType(w, contentTypeHTML)
		writeTopicsFrame(w, p)
	case "/ad.html":
		// Target of <iframe browsingtopics>: acknowledge observation.
		if r.Header.Get(TopicsRequestHeader) != "" {
			w.Header()[ObserveHeader] = observeTopics
		}
		setContentType(w, contentTypeHTML)
		fmt.Fprintf(w, "<html><body><p>ad by %s</p></body></html>", host)
	case "/t":
		// Fetch-call endpoint: topics arrive in the request header; the
		// response asks the browser to record the observation.
		if r.Header.Get(TopicsRequestHeader) != "" {
			w.Header()[ObserveHeader] = observeTopics
		}
		w.WriteHeader(http.StatusNoContent)
	case "/px.gif":
		servePixel(w)
	case attestation.WellKnownPath:
		s.serveAttestation(w, p)
	default:
		http.NotFound(w, r)
	}
}

// serveCMP serves consent-management assets; their presence on a page is
// how the analysis fingerprints the CMP (Figure 7).
func (s *Server) serveCMP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/consent.js":
		setContentType(w, contentTypeJS)
		writeShared(w, cmpLoader)
	case "/banner.css":
		setContentType(w, contentTypeCSS)
		writeShared(w, cmpBannerCSS)
	default:
		http.NotFound(w, r)
	}
}

// serveGTM serves the Google Tag Manager container. The container body
// depends on the embedding site's configuration (§4: GTM "contains a
// call to the browsingTopics() function") and is executed by the browser
// in the page's root context — the origin confusion of Figure 4.
func (s *Server) serveGTM(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/gtm.js" {
		http.NotFound(w, r)
		return
	}
	setContentType(w, contentTypeJS)
	site, ok := s.World.SiteByDomain(refererHost(r))
	if !ok || !site.HasGTM {
		writeShared(w, gtmInert)
		return
	}
	// The container is built in one buffer the writer may keep: one
	// allocation instead of a body copy per line.
	b := make([]byte, 0, 128)
	b = fmt.Appendln(b, "// gtm container", r.URL.Query().Get("id"))
	b = fmt.Appendln(b, "#ts fetch url=//"+webworld.GTMDomain+"/px.gif")
	if site.GTMTopicsCall {
		directive := "#ts call"
		if site.GTMConsentMode {
			directive = "#ts if-consent call"
		}
		b = fmt.Appendln(b, directive)
		// Containers with several topics-reaching tags call more than
		// once per page; the paper counts 3,450 anomalous calls from
		// 2,614 CPs (§2.2: "possible multiple calls from the same CP on
		// the same webpage").
		if gtmDoubleCall(site.Domain) {
			b = fmt.Appendln(b, directive)
		}
	}
	writeShared(w, b)
}

func (s *Server) serveLongTail(w http.ResponseWriter, r *http.Request) {
	switch {
	case strings.HasSuffix(r.URL.Path, ".js"):
		setContentType(w, contentTypeJS)
		writeShared(w, longTailWidget)
	case strings.HasSuffix(r.URL.Path, ".gif"):
		servePixel(w)
	default:
		setContentType(w, contentTypeText)
		writeShared(w, longTailOK)
	}
}

// gtmDoubleCall deterministically marks ≈30% of containers as reaching
// the browsingTopics() call twice.
func gtmDoubleCall(domain string) bool {
	h := fnv.New32a()
	h.Write([]byte(domain))
	return h.Sum32()%10 < 3
}

func serveStatic(w http.ResponseWriter, path string) {
	switch {
	case strings.HasSuffix(path, ".css"):
		setContentType(w, contentTypeCSS)
		writeShared(w, staticCSS)
	case strings.HasSuffix(path, ".js"):
		setContentType(w, contentTypeJS)
		writeShared(w, staticJS)
	default:
		servePixel(w)
	}
}

// servePixel serves a minimal 1x1 transparent GIF.
func servePixel(w http.ResponseWriter) {
	setContentType(w, contentTypeGIF)
	writeShared(w, pixelGIF)
}
