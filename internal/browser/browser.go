// Package browser emulates the instrumented Chromium of the paper's
// methodology (§2.2): it loads pages over HTTP, fetches subresources,
// executes scripts and iframes with real browsing-context origin
// semantics, implements the three Topics API call types (JavaScript,
// Fetch, IFrame) with the Sec-Browsing-Topics / Observe-Browsing-Topics
// header flow, enforces the caller allow-list through
// internal/attestation's Gate — including Chromium's corrupted-database
// default-allow bug — and records every Topics API invocation exactly as
// the paper's modified BrowsingTopicsSiteDataManagerImpl does: calling
// party, site, call type, context origin and timestamp.
//
// The origin rule that produces the paper's §4 anomaly is implemented
// faithfully (Figure 4): a <script src="https://third.party/x.js">
// placed directly in a page executes in the page's root browsing
// context, so its document.browsingTopics() call carries the *website's*
// origin; only scripts running inside an iframe carry the frame's
// origin.
package browser

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
	"unique"

	"github.com/netmeasure/topicscope/internal/attestation"
	"github.com/netmeasure/topicscope/internal/chaos"
	"github.com/netmeasure/topicscope/internal/dataset"
	"github.com/netmeasure/topicscope/internal/etld"
	"github.com/netmeasure/topicscope/internal/htmlx"
	"github.com/netmeasure/topicscope/internal/obs"
	"github.com/netmeasure/topicscope/internal/topics"
)

// Header names of the Topics API network integration.
const (
	TopicsRequestHeader = "Sec-Browsing-Topics"
	ObserveHeader       = "Observe-Browsing-Topics"
	// VirtualTimeHeader is simulation plumbing, not part of the Topics
	// protocol: the browser stamps every request with its virtual clock
	// so the synthetic web server evaluates A/B-test slots at the
	// *visit's* time, keeping concurrent crawls deterministic.
	VirtualTimeHeader = "X-Topicscope-Time"
	// VantageHeader declares the visitor's jurisdiction to the synthetic
	// web (the stand-in for geo-IP): sites geo-fence their GDPR banners
	// and gating on it. §6 notes the paper crawled from a single EU
	// vantage; this knob explores the alternative.
	VantageHeader        = "X-Topicscope-Vantage"
	defaultUserAgent     = "topicscope/1.0 (emulated Chromium/122.0.6261.128)"
	defaultMaxFrameDepth = 3
	maxRedirects         = 5
	maxBodySize          = 4 << 20
)

// consentCookie is the shared Cookie header value of a consented
// first-party request; never mutated.
var consentCookie = []string{"consent=1"}

// Config configures a Browser.
type Config struct {
	// Client supplies the transport and timeout; typically
	// webserver.(*Server).Client() or a TCP client. The browser calls
	// Client.Transport directly, follows redirects itself and bounds
	// each fetch by Client.Timeout (when non-zero).
	Client *http.Client
	// Gate is the operational caller check. The paper's crawler runs a
	// deliberately corrupted gate (attestation.NewCorruptedGate) so that
	// even unenrolled callers execute and can be observed (§2.3).
	Gate *attestation.Gate
	// ReferenceAllowlist annotates each recorded call with the verdict a
	// healthy allow-list would give, so the analysis can separate
	// Allowed from !Allowed callers (Table 1).
	ReferenceAllowlist *attestation.Allowlist
	// Engine answers the Topics API calls. Optional: when nil every call
	// returns no topics but is still recorded — matching a fresh profile
	// with no browsing history.
	Engine *topics.Engine
	// Now supplies timestamps; defaults to time.Now.
	Now func() time.Time
	// MaxFrameDepth bounds iframe recursion.
	MaxFrameDepth int
	// UserAgent overrides the default UA string.
	UserAgent string
	// Vantage is the visitor jurisdiction: "eu" (default — the paper's
	// setup) or "us". Outside the EU, TCF reports gdprApplies=false and
	// consent-guarded tags proceed without a banner interaction.
	Vantage string
	// Scheme is the navigation scheme, "http" (default) or "https"; the
	// synthetic web emits scheme-relative subresource URLs so either
	// works end to end.
	Scheme string
	// Attempts is the total try budget for a transiently failing fetch
	// (1 = no retries). Each retry carries an incremented attempt
	// header, so against the chaos injector it redraws the fault coin
	// deterministically. Default 3.
	Attempts int
	// BreakerThreshold trips a per-host circuit breaker within one page
	// load after this many failed fetches: further requests to the host
	// short-circuit with a circuit-open error instead of burning the
	// retry budget. Default 3; negative disables the breaker.
	BreakerThreshold int
}

func (c Config) withDefaults() Config {
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.MaxFrameDepth <= 0 {
		c.MaxFrameDepth = defaultMaxFrameDepth
	}
	if c.UserAgent == "" {
		c.UserAgent = defaultUserAgent
	}
	if c.Gate == nil {
		c.Gate = attestation.NewCorruptedGate()
	}
	if c.Vantage == "" {
		c.Vantage = "eu"
	}
	if c.Scheme == "" {
		c.Scheme = "http"
	}
	if c.ReferenceAllowlist == nil {
		c.ReferenceAllowlist = attestation.NewAllowlist()
	}
	if c.Attempts <= 0 {
		c.Attempts = 3
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	return c
}

// StatusError is a fetch that completed with a server-error status (or
// a navigation that ended on any non-200 one).
type StatusError struct {
	Host   string
	Status int
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("status %d from %s", e.Status, e.Host)
}

// ErrorClass maps the status onto the chaos taxonomy.
func (e *StatusError) ErrorClass() string {
	if e.Status >= 500 {
		return string(chaos.ClassHTTP5xx)
	}
	return string(chaos.ClassOther)
}

// Browser is the emulated browser. It is safe for concurrent use; each
// LoadPage call is independent, while consent state and the Topics
// engine are shared like in one real browser profile.
type Browser struct {
	cfg Config
	// userAgent and vantage are pre-built request header values, shared
	// by every request and never mutated.
	userAgent, vantage []string

	mu      sync.Mutex
	consent map[string]bool // registrable domain -> consented
}

// New builds a Browser.
func New(cfg Config) *Browser {
	cfg = cfg.withDefaults()
	return &Browser{
		cfg:       cfg,
		userAgent: []string{cfg.UserAgent},
		vantage:   []string{cfg.Vantage},
		consent:   make(map[string]bool),
	}
}

// PageVisit is the instrumented result of loading one page.
type PageVisit struct {
	// RequestedURL is the navigation target.
	RequestedURL string
	// FinalURL is where the navigation ended after redirects.
	FinalURL string
	// PageOrigin is the host of the final document — the root browsing
	// context's origin.
	PageOrigin string
	// Status is the final HTTP status.
	Status int
	// Resources lists every object downloaded.
	Resources []dataset.Resource
	// Calls lists every Topics API invocation observed.
	Calls []dataset.TopicsCall
	// Doc is the parsed final document, for consent detection.
	Doc *htmlx.Node
	// Retries counts fetch attempts beyond the first across the visit.
	Retries int

	visitedSite string         // rank-list domain the visit is attributed to
	failures    map[string]int // per-host failed fetches, for the breaker
	trace       *obs.Trace     // stage-clock trace; nil disables tracing

	// The page load's one request, reused by every fetch (see
	// fetchOnce), and its last X-Topicscope-Time value.
	req       *http.Request
	stamp     []string
	stampedAt time.Time
}

// SetConsent marks the user as having accepted the privacy policy of the
// given origin (Priv-Accept clicking "Accept"): subsequent requests to
// that registrable domain carry the consent cookie and if-consent
// integrations run.
func (b *Browser) SetConsent(origin string) {
	reg := etld.RegistrableDomain(origin)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consent[reg] = true
}

// HasConsent reports the consent state for an origin.
func (b *Browser) HasConsent(origin string) bool {
	reg := etld.RegistrableDomain(origin)
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.consent[reg]
}

// ClearConsent forgets all consent state (fresh profile).
func (b *Browser) ClearConsent() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consent = make(map[string]bool)
}

// LoadPage navigates to http://<site>/ and renders it: subresources are
// fetched, scripts and iframes are executed with correct origin
// semantics, Topics API calls are gated, executed and recorded.
func (b *Browser) LoadPage(ctx context.Context, site string) (*PageVisit, error) {
	return b.LoadPageTraced(ctx, site, nil)
}

// LoadPageTraced is LoadPage with an observability trace attached:
// every sub-resource fetch, script execution, nested frame and Topics
// API call opens a span on the trace's stage clock. A nil trace
// disables tracing with zero per-call checks (obs.Trace methods are
// nil-safe).
func (b *Browser) LoadPageTraced(ctx context.Context, site string, tr *obs.Trace) (*PageVisit, error) {
	v := &PageVisit{
		RequestedURL: b.cfg.Scheme + "://" + site + "/",
		visitedSite:  site,
		failures:     make(map[string]int),
		trace:        tr,
	}
	resp, body, finalURL, err := b.navigate(ctx, v, v.RequestedURL)
	if err != nil {
		return v, fmt.Errorf("browser: loading %s: %w", site, err)
	}
	v.FinalURL = finalURL.String()
	v.PageOrigin = keep(etld.Normalize(finalURL.Host))
	v.Status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("browser: loading %s: %w", site, &StatusError{Host: v.PageOrigin, Status: resp.StatusCode})
	}
	v.Doc = htmlx.Parse(body)

	// The page visit feeds the Topics history (the browser "observes the
	// sites the user visits", §2.1).
	if b.cfg.Engine != nil {
		b.cfg.Engine.RecordVisit(v.PageOrigin)
	}

	ec := &execCtx{
		visit:   v,
		pageURL: finalURL,
		referer: []string{v.FinalURL},
		origin:  v.PageOrigin,
		depth:   0,
	}
	b.processDocument(ctx, ec, v.Doc)
	return v, nil
}

// navigate GETs a URL following up to maxRedirects redirects, recording
// every hop as a downloaded resource.
func (b *Browser) navigate(ctx context.Context, v *PageVisit, rawURL string) (*http.Response, string, *url.URL, error) {
	current := rawURL
	for hop := 0; hop <= maxRedirects; hop++ {
		u, err := url.Parse(current)
		if err != nil {
			return nil, "", nil, fmt.Errorf("parsing %q: %w", current, err)
		}
		resp, body, err := b.fetch(ctx, v, u, nil, "")
		if err != nil {
			return nil, "", nil, err
		}
		if resp.StatusCode >= 300 && resp.StatusCode < 400 {
			loc := resp.Header.Get("Location")
			if loc == "" {
				return resp, body, u, nil
			}
			next, err := u.Parse(loc)
			if err != nil {
				return nil, "", nil, fmt.Errorf("bad redirect %q: %w", loc, err)
			}
			current = next.String()
			continue
		}
		return resp, body, u, nil
	}
	return nil, "", nil, fmt.Errorf("too many redirects for %s", rawURL)
}

// fetch downloads one URL with bounded retries and a per-host circuit
// breaker, records it as a resource — failed fetches included, so a
// degraded page still yields a partial record — attaches the consent
// cookie for consented first-party hosts, the Referer value when
// referer is not nil, and the Sec-Browsing-Topics value when topics is
// not empty. It honours Observe-Browsing-Topics responses.
func (b *Browser) fetch(ctx context.Context, v *PageVisit, u *url.URL, referer []string, topics string) (*http.Response, string, error) {
	host := etld.Normalize(u.Host)
	v.trace.Start("fetch", obs.A("host", host), obs.A("path", u.Path))
	defer v.trace.End()
	record := func(err error) {
		res := dataset.Resource{
			URL:        u.String(),
			Host:       keep(host),
			ThirdParty: !etld.SameSite(host, v.visitedSite),
		}
		if err != nil {
			res.Failed = true
			res.Error = string(chaos.Classify(err))
			if v.failures != nil {
				v.failures[host]++
			}
		}
		v.Resources = append(v.Resources, res)
	}

	if b.cfg.BreakerThreshold > 0 && v.failures[host] >= b.cfg.BreakerThreshold {
		err := &chaos.Error{Class: chaos.ClassCircuitOpen, Host: host}
		v.trace.Annotate(obs.A("error", string(chaos.ClassCircuitOpen)))
		record(err)
		return nil, "", err
	}

	var (
		resp *http.Response
		body string
		err  error
	)
	for attempt := 0; ; attempt++ {
		v.trace.Advance(obs.FetchCost)
		resp, body, err = b.fetchOnce(ctx, v, u, referer, topics, attempt)
		chargeChaosLatency(v.trace, resp, err)
		if err == nil && resp.StatusCode >= http.StatusInternalServerError {
			err = &StatusError{Host: host, Status: resp.StatusCode}
		}
		if err == nil || attempt+1 >= b.cfg.Attempts ||
			!chaos.Retryable(chaos.Classify(err)) || ctx.Err() != nil {
			if attempt > 0 {
				v.trace.Annotate(obs.A("attempts", strconv.Itoa(attempt+1)))
			}
			break
		}
		v.Retries++
	}
	if err != nil {
		v.trace.Annotate(obs.A("error", string(chaos.Classify(err))))
	}
	record(err)
	if err != nil {
		return nil, "", err
	}
	return resp, body, nil
}

// chargeChaosLatency advances the stage clock by any deterministic
// latency the chaos layer injected on this attempt: sub-timeout delays
// arrive via the response's chaos.LatencyHeader, timeout failures carry
// theirs on the typed error.
func chargeChaosLatency(tr *obs.Trace, resp *http.Response, err error) {
	if tr == nil {
		return
	}
	if resp != nil {
		if h := resp.Header.Get(chaos.LatencyHeader); h != "" {
			if ns, perr := strconv.ParseInt(h, 10, 64); perr == nil && ns > 0 {
				tr.Advance(time.Duration(ns))
			}
		}
	}
	if err != nil {
		for e := err; e != nil; e = unwrapErr(e) {
			if ce, ok := e.(*chaos.Error); ok && ce.Latency > 0 {
				tr.Advance(ce.Latency)
				return
			}
		}
	}
}

func unwrapErr(err error) error {
	if u, ok := err.(interface{ Unwrap() error }); ok {
		return u.Unwrap()
	}
	return nil
}

// fetchOnce performs one fetch attempt. The attempt number is stamped
// on the request so a retry redraws the chaos injector's fault coin
// deterministically (the virtual clock is fixed within a page load).
func (b *Browser) fetchOnce(ctx context.Context, v *PageVisit, u *url.URL, referer []string, topics string, attempt int) (*http.Response, string, error) {
	// The request goes straight to the client's transport: the browser
	// follows redirects itself, so Client.Do's redirect loop, header
	// clone and deadline timer buy nothing. What the dataset can see of
	// Do is kept — Client.Timeout bounds the fetch (body included) and
	// a failure carries Do's *url.Error text.
	rt := b.cfg.Client.Transport
	if rt == nil {
		rt = http.DefaultTransport
	}
	fetchCtx := ctx
	if timeout := b.cfg.Client.Timeout; timeout > 0 {
		var cancel context.CancelFunc
		fetchCtx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	req := v.request(fetchCtx)
	req.URL, req.Host = u, u.Host
	h := req.Header
	h["User-Agent"] = b.userAgent
	h[VirtualTimeHeader] = v.timeStamp(b.cfg.Now())
	h[chaos.AttemptHeader] = attemptValue(attempt)
	h[VantageHeader] = b.vantage
	if referer != nil {
		h["Referer"] = referer
	}
	if topics != "" {
		h[TopicsRequestHeader] = []string{topics}
	}
	if b.HasConsent(u.Host) {
		h["Cookie"] = consentCookie
	}

	resp, err := rt.RoundTrip(req)
	if err != nil {
		// The transport may still hold a request it failed: the next
		// fetch builds its own.
		v.req = nil
		if fetchCtx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
			err = &clientTimeoutError{err.Error() + " (Client.Timeout exceeded while awaiting headers)"}
		}
		return nil, "", &url.Error{Op: "Get", URL: u.String(), Err: err}
	}
	defer resp.Body.Close()
	body, err := readBody(resp.Body)
	if err != nil {
		return nil, "", fmt.Errorf("reading %s: %w", u, err)
	}

	// A caller that received topics and answers Observe-Browsing-Topics
	// has its page observation recorded (the header flow of the Topics
	// fetch integration).
	if b.cfg.Engine != nil && topics != "" &&
		strings.HasPrefix(resp.Header.Get(ObserveHeader), "?1") {
		b.cfg.Engine.Observe(v.visitedSite, etld.RegistrableDomain(etld.Normalize(u.Host)))
	}
	return resp, body, nil
}

// request returns the page load's request for the next fetch, with an
// empty header map. net/http's RoundTripper contract lets a caller
// reuse a request once the response body is closed, which fetchOnce
// does before it returns, so one request and one header map serve
// every fetch of the page load. A fresh pair is built for the first
// fetch, after a failed RoundTrip, and whenever the fetch context
// differs (a Client.Timeout deadline is a new context per fetch). A
// response's Request field is only valid until the next fetch.
func (v *PageVisit) request(ctx context.Context) *http.Request {
	if v.req != nil && v.req.Context() == ctx {
		clear(v.req.Header)
		return v.req
	}
	v.req = (&http.Request{
		Method:     http.MethodGet,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     make(http.Header, 8),
	}).WithContext(ctx)
	return v.req
}

// timeStamp returns the X-Topicscope-Time value of now, formatted once
// per distinct virtual time.
func (v *PageVisit) timeStamp(now time.Time) []string {
	if v.stamp == nil || !now.Equal(v.stampedAt) {
		v.stamp = []string{now.UTC().Format(time.RFC3339Nano)}
		v.stampedAt = now
	}
	return v.stamp
}

// attemptValues are the attempt header values of the default try
// budget, shared by every request and never mutated.
var attemptValues = [...][]string{{"0"}, {"1"}, {"2"}}

func attemptValue(attempt int) []string {
	if attempt < len(attemptValues) {
		return attemptValues[attempt]
	}
	return []string{strconv.Itoa(attempt)}
}

// readBody returns a response body as a string, cut at maxBodySize
// bytes. A body that exposes its bytes — the in-process transport's,
// see webserver.Transport — costs that one string copy. Any other body
// (TCP, or one a wrapping transport replaced) is read through
// io.LimitReader, which cuts at the same length.
func readBody(r io.Reader) (string, error) {
	if bb, ok := r.(interface{ Bytes() []byte }); ok {
		p := bb.Bytes()
		if len(p) > maxBodySize {
			p = p[:maxBodySize]
		}
		return string(p), nil
	}
	p, err := io.ReadAll(io.LimitReader(r, maxBodySize))
	if err != nil {
		return "", err
	}
	return string(p), nil
}

// keep returns a canonical copy of s for a record that outlives the page
// s came from. Hosts and callers are sliced from the page or script body
// that named them; stored as they are, each would keep that whole body
// alive for as long as the record lives. unique.Make copies a string
// the first time it is seen and hands the same copy back,
// allocation-free, for every repeat.
func keep(s string) string { return unique.Make(s).Value() }

// clientTimeoutError carries the text http.Client gives a request its
// Timeout cut short, so TCP-crawl error strings stay as they were.
type clientTimeoutError struct{ msg string }

func (e *clientTimeoutError) Error() string { return e.msg }
func (e *clientTimeoutError) Timeout() bool { return true }
