package webserver

import (
	"fmt"
	"net/http"
	"sort"
	"sync/atomic"

	"github.com/netmeasure/topicscope/internal/chaos"
	"github.com/netmeasure/topicscope/internal/obs"
	"github.com/netmeasure/topicscope/internal/webworld"
)

// Metrics counts served requests per host kind, for topics-serve
// observability.
type Metrics struct {
	counts [webworld.HostLongTail + 1]atomic.Int64
}

func (m *Metrics) observe(kind webworld.HostKind) {
	if int(kind) < len(m.counts) {
		m.counts[kind].Add(1)
	}
}

// Snapshot is a point-in-time copy of the counters.
type Snapshot struct {
	Sites, Sisters, Platforms, CMPs, GTM, LongTail, Unknown int64
}

// Total sums all requests.
func (s Snapshot) Total() int64 {
	return s.Sites + s.Sisters + s.Platforms + s.CMPs + s.GTM + s.LongTail + s.Unknown
}

// String renders a one-line summary.
func (s Snapshot) String() string {
	return fmt.Sprintf("requests total=%d sites=%d sisters=%d platforms=%d cmps=%d gtm=%d longtail=%d unknown=%d",
		s.Total(), s.Sites, s.Sisters, s.Platforms, s.CMPs, s.GTM, s.LongTail, s.Unknown)
}

// MetricsPath is the debug endpoint topics-serve exposes.
const MetricsPath = "/__metrics"

// MetricsHandler renders the server's request counters — plus the
// chaos injector's when one is attached, plus an obs registry's crawl
// counters and latency summaries when one is shared — in the
// Prometheus text exposition format. chaosStats and reg may be nil.
func MetricsHandler(s *Server, chaosStats *chaos.Stats, reg *obs.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		setContentType(w, contentTypeProm)
		defer reg.WriteProm(w) //nolint:errcheck // best-effort debug endpoint
		snap := s.Metrics()
		fmt.Fprintln(w, "# HELP topicscope_requests_total Requests served, by host kind.")
		fmt.Fprintln(w, "# TYPE topicscope_requests_total counter")
		for _, kv := range []struct {
			kind string
			n    int64
		}{
			{"site", snap.Sites},
			{"sister", snap.Sisters},
			{"platform", snap.Platforms},
			{"cmp", snap.CMPs},
			{"gtm", snap.GTM},
			{"longtail", snap.LongTail},
			{"unknown", snap.Unknown},
		} {
			fmt.Fprintf(w, "topicscope_requests_total{kind=%q} %d\n", kv.kind, kv.n)
		}
		if chaosStats == nil {
			return
		}
		cs := chaosStats.Snapshot()
		fmt.Fprintln(w, "# HELP topicscope_chaos_requests_total Requests seen by the fault injector.")
		fmt.Fprintln(w, "# TYPE topicscope_chaos_requests_total counter")
		fmt.Fprintf(w, "topicscope_chaos_requests_total %d\n", cs.Requests)
		fmt.Fprintln(w, "# HELP topicscope_chaos_delayed_total Requests with injected latency under the timeout budget.")
		fmt.Fprintln(w, "# TYPE topicscope_chaos_delayed_total counter")
		fmt.Fprintf(w, "topicscope_chaos_delayed_total %d\n", cs.Delayed)
		fmt.Fprintln(w, "# HELP topicscope_chaos_injected_total Injected faults, by taxonomy class.")
		fmt.Fprintln(w, "# TYPE topicscope_chaos_injected_total counter")
		classes := make([]string, 0, len(cs.Injected))
		for c := range cs.Injected {
			classes = append(classes, string(c))
		}
		sort.Strings(classes)
		for _, c := range classes {
			fmt.Fprintf(w, "topicscope_chaos_injected_total{class=%q} %d\n", c, cs.Injected[chaos.Class(c)])
		}
	})
}

// Metrics returns the current counters.
func (s *Server) Metrics() Snapshot {
	m := &s.metrics
	return Snapshot{
		Sites:     m.counts[webworld.HostSite].Load(),
		Sisters:   m.counts[webworld.HostSister].Load(),
		Platforms: m.counts[webworld.HostPlatform].Load(),
		CMPs:      m.counts[webworld.HostCMP].Load(),
		GTM:       m.counts[webworld.HostGTM].Load(),
		LongTail:  m.counts[webworld.HostLongTail].Load(),
		Unknown:   m.counts[webworld.HostUnknown].Load(),
	}
}
