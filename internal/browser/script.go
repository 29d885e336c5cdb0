package browser

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"github.com/netmeasure/topicscope/internal/dataset"
	"github.com/netmeasure/topicscope/internal/etld"
	"github.com/netmeasure/topicscope/internal/obs"
)

// The synthetic web's scripts carry their behaviour as directive lines
// ("#ts ..."), the emulator's stand-in for a JavaScript engine. The
// grammar:
//
//	#ts [if-consent] call
//	#ts [if-consent] fetch url=<URL> [topics]
//	#ts [if-consent] iframe src=<URL> [browsingtopics]
//
// "call" is document.browsingTopics() — executed with the *current
// browsing context's* origin; "fetch ... topics" is
// fetch(url, {browsingTopics: true}); "iframe ... browsingtopics" builds
// an <iframe browsingtopics>. The if-consent prefix models a tag
// checking the TCF consent state before using personal data.
const directivePrefix = "#ts "

// execScript interprets a script body within a browsing context.
func (b *Browser) execScript(ctx context.Context, ec *execCtx, body string) {
	ec.visit.trace.Start("script", obs.A("origin", ec.origin))
	ec.visit.trace.Advance(obs.ScriptCost)
	defer ec.visit.trace.End()
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, directivePrefix) {
			continue
		}
		if ctx.Err() != nil {
			return
		}
		b.execDirective(ctx, ec, strings.Fields(line[len(directivePrefix):]))
	}
}

func (b *Browser) execDirective(ctx context.Context, ec *execCtx, tokens []string) {
	if len(tokens) == 0 {
		return
	}
	if tokens[0] == "if-consent" {
		// Consent is a property of the top-level site the user is
		// visiting, which is what a TCF consent string encodes. Outside
		// the EU the TCF reports gdprApplies=false and tags proceed.
		if b.cfg.Vantage == "eu" && !b.HasConsent(ec.pageURL.Host) {
			return
		}
		tokens = tokens[1:]
		if len(tokens) == 0 {
			return
		}
	}
	switch tokens[0] {
	case "call":
		// document.browsingTopics(): the caller is the origin of the
		// executing browsing context — the page itself for root-context
		// scripts, no matter which server the script file came from.
		caller := etld.RegistrableDomain(ec.origin)
		b.jsTopicsCall(ec.visit, caller, ec.origin)
	case "fetch":
		urlArg, topicsFlag := parseArgs(tokens[1:], "url", "topics")
		if urlArg == "" {
			return
		}
		u, ok := ec.resolve(urlArg)
		if !ok {
			return
		}
		var topics string
		if topicsFlag {
			caller := etld.RegistrableDomain(u.Host)
			topics, _ = b.topicsCall(ec.visit, dataset.CallFetch, caller, u.Host)
		}
		b.fetch(ctx, ec.visit, u, ec.refererHeader(), topics) //nolint:errcheck // best-effort beacon
	case "iframe":
		srcArg, browsingTopics := parseArgs(tokens[1:], "src", "browsingtopics")
		if srcArg == "" {
			return
		}
		b.loadFrame(ctx, ec, srcArg, browsingTopics)
	}
}

// parseArgs extracts "<key>=<value>" and a boolean flag from directive
// arguments.
func parseArgs(args []string, key, flag string) (value string, flagSet bool) {
	prefix := key + "="
	for _, a := range args {
		switch {
		case strings.HasPrefix(a, prefix):
			value = a[len(prefix):]
		case a == flag:
			flagSet = true
		}
	}
	return value, flagSet
}

// jsTopicsCall performs a JavaScript-type Topics API call from a
// browsing context.
func (b *Browser) jsTopicsCall(v *PageVisit, caller, contextOrigin string) {
	b.topicsCall(v, dataset.CallJavaScript, caller, contextOrigin)
}

// topicsCall runs the full Topics API call path: the allow-list gate
// (with the §2.3 corrupted-database default-allow bug when so
// configured), the engine query, and the instrumentation record. It
// returns the Sec-Browsing-Topics header value for fetch/iframe calls
// and whether the call was allowed to proceed.
func (b *Browser) topicsCall(v *PageVisit, typ dataset.CallType, caller, contextOrigin string) (headerValue string, allowed bool) {
	v.trace.Start("topics_call", obs.A("caller", caller), obs.A("type", string(typ)))
	v.trace.Advance(obs.TopicsCallCost)
	defer v.trace.End()
	decision := b.cfg.Gate.Check(caller)
	v.trace.Annotate(obs.A("allowed", strconv.FormatBool(decision.Allowed)))
	if !decision.Allowed {
		// A healthy browser silently blocks the call; nothing is
		// recorded, nothing is returned.
		return "", false
	}

	var ids []int
	if b.cfg.Engine != nil {
		for _, r := range b.cfg.Engine.BrowsingTopics(caller, v.visitedSite) {
			ids = append(ids, r.Topic.ID)
		}
	}

	v.Calls = append(v.Calls, dataset.TopicsCall{
		Caller:         keep(caller),
		Site:           v.visitedSite,
		Type:           typ,
		ContextOrigin:  keep(contextOrigin),
		Timestamp:      b.cfg.Now(),
		GateAllowed:    b.cfg.ReferenceAllowlist.Contains(caller),
		GateReason:     decision.Reason.String(),
		TopicsReturned: len(ids),
	})
	return formatTopicsHeader(ids), true
}

// formatTopicsHeader renders the Sec-Browsing-Topics value, e.g.
// "(1 42);v=chrome.2". An empty topic set still yields the versioned
// empty list, as Chrome sends "();p=P0000000000..." padding — we keep
// just the structural part.
func formatTopicsHeader(ids []int) string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, id := range ids {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d", id)
	}
	sb.WriteString(");v=chrome.2")
	return sb.String()
}
