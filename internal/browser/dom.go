package browser

import (
	"context"
	"net/url"
	"strings"

	"github.com/netmeasure/topicscope/internal/dataset"
	"github.com/netmeasure/topicscope/internal/etld"
	"github.com/netmeasure/topicscope/internal/htmlx"
	"github.com/netmeasure/topicscope/internal/obs"
)

// execCtx is one browsing context: the page's root context, or an
// iframe's nested context with its own origin.
type execCtx struct {
	visit *PageVisit
	// pageURL is the top-level document URL (used for Referer and for
	// the consent state the if-consent guard checks).
	pageURL *url.URL
	// docURL is this context's document URL (= pageURL in the root
	// context, the frame URL inside an iframe).
	docURL *url.URL
	// referer caches documentURL() rendered as the Referer header
	// value of the context's requests; see refererHeader.
	referer []string
	// origin is the browsing context's origin host. Scripts execute with
	// THIS origin, regardless of where their source file came from —
	// the Figure 4 rule.
	origin string
	depth  int
}

func (ec *execCtx) documentURL() *url.URL {
	if ec.docURL != nil {
		return ec.docURL
	}
	return ec.pageURL
}

// refererHeader renders the document URL as a Referer header value
// once per context, on the first request that needs it: most frames
// send none. The value is shared by every request of the context and
// never mutated.
func (ec *execCtx) refererHeader() []string {
	if ec.referer == nil {
		ec.referer = []string{ec.documentURL().String()}
	}
	return ec.referer
}

// processDocument walks a parsed document, fetching subresources and
// executing scripts and iframes within the given context.
func (b *Browser) processDocument(ctx context.Context, ec *execCtx, doc *htmlx.Node) {
	doc.Walk(func(n *htmlx.Node) bool {
		if ctx.Err() != nil {
			return false
		}
		switch n.Tag {
		case "script":
			if src, ok := n.Attr("src"); ok && src != "" {
				// External script: fetched from its own host but
				// EXECUTED in the embedding document's context.
				if u, okURL := ec.resolve(src); okURL {
					_, body, err := b.fetch(ctx, ec.visit, u, ec.refererHeader(), "")
					if err == nil {
						b.execScript(ctx, ec, body)
					}
				}
			} else if n.Text != "" {
				b.execScript(ctx, ec, n.Text)
			}
			return false
		case "iframe":
			if src, ok := n.Attr("src"); ok && src != "" {
				b.loadFrame(ctx, ec, src, n.HasAttr("browsingtopics"))
			}
			return false
		case "img", "link":
			attr := "src"
			if n.Tag == "link" {
				attr = "href"
			}
			if ref, ok := n.Attr(attr); ok && ref != "" {
				if u, okURL := ec.resolve(ref); okURL {
					b.fetch(ctx, ec.visit, u, ec.refererHeader(), "") //nolint:errcheck // best-effort subresource
				}
			}
		}
		return true
	})
}

// resolve resolves a possibly relative reference against the context's
// document URL.
func (ec *execCtx) resolve(ref string) (*url.URL, bool) {
	u, err := ec.documentURL().Parse(ref)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") {
		return nil, false
	}
	return u, true
}

// loadFrame loads an iframe: a nested browsing context whose origin is
// the frame URL's host. With the browsingtopics attribute, the frame
// request itself is a Topics API call of type IFrame.
func (b *Browser) loadFrame(ctx context.Context, parent *execCtx, src string, browsingTopics bool) {
	if parent.depth >= b.cfg.MaxFrameDepth {
		return
	}
	u, ok := parent.resolve(src)
	if !ok {
		return
	}
	parent.visit.trace.Start("frame", obs.A("host", etld.Normalize(u.Host)))
	parent.visit.trace.Advance(obs.FrameCost)
	defer parent.visit.trace.End()
	var topics string
	if browsingTopics {
		caller := etld.RegistrableDomain(u.Host)
		topics, _ = b.topicsCall(parent.visit, dataset.CallIframe, caller, u.Host)
	}
	_, body, err := b.fetch(ctx, parent.visit, u, parent.refererHeader(), topics)
	if err != nil {
		return
	}
	if !strings.Contains(body, "<") {
		return
	}
	frameDoc := htmlx.Parse(body)
	frameCtx := &execCtx{
		visit:   parent.visit,
		pageURL: parent.pageURL,
		docURL:  u,
		origin:  etld.Normalize(u.Host),
		depth:   parent.depth + 1,
	}
	b.processDocument(ctx, frameCtx, frameDoc)
}
