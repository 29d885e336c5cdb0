package webserver

import (
	"fmt"
	"io"
	"time"

	"github.com/netmeasure/topicscope/internal/adcatalog"
	"github.com/netmeasure/topicscope/internal/dataset"
)

// platformTag renders an ad platform's bootstrap script for the page
// identified by siteHost (from the Referer header). The platform decides
// server-side — as real ad tech does — whether this (site, time slot)
// cell of its A/B test has the Topics integration enabled (Figure 3),
// and emits the corresponding integration style:
//
//   - JavaScript: open a same-platform iframe whose script calls
//     document.browsingTopics() — the only way a third party can issue a
//     JS call under its own origin (Figure 4);
//   - Fetch: fetch(platformURL, {browsingTopics: true});
//   - IFrame: <iframe browsingtopics src=platformURL>.
//
// Consent-aware platforms guard the integration with if-consent, which
// the browser evaluates against the page's consent state (the client-side
// TCF check of real tags); the rest call regardless — the questionable
// behaviour of Figure 5.
func (s *Server) platformTag(p *adcatalog.Platform, siteHost string, now time.Time) []byte {
	b := make([]byte, 0, 160)
	b = fmt.Appendf(b, "// %s tag\n", p.Domain)
	// Presence beacon: lets the crawler see the platform on the page
	// even when the Topics integration is off ("CP present but not
	// called", Figure 2).
	b = fmt.Appendf(b, "#ts fetch url=//%s/px.gif\n", p.Domain)

	if siteHost == "" || !p.CallsTopics || !p.EnabledOn(siteHost, now) {
		return b
	}
	guard := ""
	if p.GuardsConsentOn(siteHost) {
		guard = "if-consent "
	}
	switch p.CallTypeFor(siteHost) {
	case dataset.CallJavaScript:
		b = fmt.Appendf(b, "#ts %siframe src=//%s/topics-frame.html\n", guard, p.Domain)
	case dataset.CallFetch:
		b = fmt.Appendf(b, "#ts %sfetch url=//%s/t topics\n", guard, p.Domain)
	case dataset.CallIframe:
		b = fmt.Appendf(b, "#ts %siframe src=//%s/ad.html browsingtopics\n", guard, p.Domain)
	}
	return b
}

// writeTopicsFrame writes the platform-origin iframe whose script
// performs the JavaScript-type call: executed inside the frame, the
// call's context origin is the platform, not the page (Figure 4,
// correct deployment). Consent is enforced at the tag that opens the
// frame, so the frame itself calls unconditionally.
func writeTopicsFrame(w io.Writer, p *adcatalog.Platform) {
	fmt.Fprintf(w, `<!DOCTYPE html>
<html><head><title>%s</title></head>
<body>
<script>
// const topicsArray = await document.browsingTopics();
#ts call
</script>
</body></html>
`, p.Domain)
}
