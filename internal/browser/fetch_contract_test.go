package browser

import (
	"context"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/netmeasure/topicscope/internal/chaos"
	"github.com/netmeasure/topicscope/internal/classifier"
	"github.com/netmeasure/topicscope/internal/dataset"
	"github.com/netmeasure/topicscope/internal/taxonomy"
	"github.com/netmeasure/topicscope/internal/topics"
	"github.com/netmeasure/topicscope/internal/webserver"
	"github.com/netmeasure/topicscope/internal/webworld"
)

// TestFetchErrorContract pins the error text and taxonomy class of a
// failed navigation for every failure the crawl can meet: the world's
// unreachable sites (DNS, refused, timeout), every fault class of the
// client-side chaos injector, and a cancelled context. The strings are
// the ones http.Client.Do produced; they land verbatim in the dataset's
// error field, so they must not drift.
func TestFetchErrorContract(t *testing.T) {
	unreachable := func(mode webworld.FailureMode) string {
		for _, s := range twWorld.Sites {
			if !s.Reachable && s.Failure == mode {
				return s.Domain
			}
		}
		t.Fatalf("no unreachable site with failure mode %q", mode)
		return ""
	}
	healthy := findSite(t, func(s *webworld.Site) bool { return s.RedirectTo == "" }).Domain
	flaky := func(mix func(*chaos.Config)) chaos.Config {
		c := chaos.Config{Enabled: true, Seed: 7, FlakyRate: 1, FaultRate: 1}
		mix(&c)
		return c
	}
	cases := []struct {
		name      string
		site      string
		chaos     chaos.Config
		cancelled bool
		wantErr   string
		wantClass chaos.Class
	}{
		{name: "dns", site: unreachable(webworld.FailDNS),
			wantErr:   `browser: loading science.org: Get "http://science.org/": lookup science.org: no such host`,
			wantClass: chaos.ClassDNS},
		{name: "refused", site: unreachable(webworld.FailRefused),
			wantErr:   `browser: loading perfume-coupon.com: Get "http://perfume-coupon.com/": dial tcp perfume-coupon.com:80: connection refused`,
			wantClass: chaos.ClassRefused},
		{name: "timeout", site: unreachable(webworld.FailTimeout),
			wantErr:   `browser: loading sport-plus.com: Get "http://sport-plus.com/": dial tcp sport-plus.com:80: i/o timeout`,
			wantClass: chaos.ClassTimeout},
		{name: "chaos-refused", site: healthy,
			chaos:     chaos.Config{Enabled: true, Seed: 7, HardDownRate: 1},
			wantErr:   `browser: loading tour-central.com: Get "http://tour-central.com/": dial tcp tour-central.com:80: connection refused`,
			wantClass: chaos.ClassRefused},
		{name: "chaos-reset", site: healthy,
			chaos:     flaky(func(c *chaos.Config) { c.ResetWeight = 1 }),
			wantErr:   `browser: loading tour-central.com: Get "http://tour-central.com/": read tcp tour-central.com:80: connection reset by peer`,
			wantClass: chaos.ClassReset},
		{name: "chaos-http5xx", site: healthy,
			chaos:     flaky(func(c *chaos.Config) { c.HTTP5xxWeight = 1 }),
			wantErr:   `browser: loading tour-central.com: status 503 from tour-central.com`,
			wantClass: chaos.ClassHTTP5xx},
		{name: "chaos-truncated", site: healthy,
			chaos:     flaky(func(c *chaos.Config) { c.TruncateWeight = 1 }),
			wantErr:   `browser: loading tour-central.com: reading http://tour-central.com/: reading tour-central.com: unexpected EOF (truncated body)`,
			wantClass: chaos.ClassTruncated},
		{name: "chaos-timeout", site: healthy,
			chaos: flaky(func(c *chaos.Config) {
				c.FaultRate, c.LatencyRate = 0, 1
				c.MaxLatency, c.TimeoutAfter = 10*time.Second, time.Nanosecond
			}),
			wantErr:   `browser: loading tour-central.com: Get "http://tour-central.com/": read tcp tour-central.com:80: i/o timeout (injected latency 9.893s)`,
			wantClass: chaos.ClassTimeout},
		{name: "cancelled", site: healthy, cancelled: true,
			wantErr:   `browser: loading tour-central.com: Get "http://tour-central.com/": context canceled`,
			wantClass: chaos.ClassOther},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			client := twServer.Client()
			client.Transport = chaos.NewInjector(tc.chaos, client.Transport)
			b := New(Config{Client: client, ReferenceAllowlist: twAllow, Now: func() time.Time { return twNow }})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancelled {
				cancel()
			}
			_, err := b.LoadPage(ctx, tc.site)
			if err == nil {
				t.Fatal("LoadPage succeeded, want an error")
			}
			if err.Error() != tc.wantErr {
				t.Errorf("error text\n got %s\nwant %s", err, tc.wantErr)
			}
			if got := chaos.Classify(err); got != tc.wantClass {
				t.Errorf("class %q, want %q", got, tc.wantClass)
			}
		})
	}
}

// TestTCPFetchTimesOut points the real-socket client at a listener
// that accepts connections and never answers: the fetch must give up
// after about Client.Timeout and classify as a timeout.
func TestTCPFetchTimesOut(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
	)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	defer func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
	}()

	const timeout = 200 * time.Millisecond
	client := webserver.NewTCPClient(twWorld, ln.Addr().String(), timeout)
	b := New(Config{Client: client, Attempts: 1, Now: func() time.Time { return twNow }})
	site := findSite(t, func(s *webworld.Site) bool { return s.RedirectTo == "" })
	start := time.Now()
	_, err = b.LoadPage(context.Background(), site.Domain)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("fetch from a silent listener succeeded")
	}
	if c := chaos.Classify(err); c != chaos.ClassTimeout {
		t.Errorf("class %q (%v), want timeout", c, err)
	}
	// http.Client raced two texts here ("net/http: request canceled" or
	// "context deadline exceeded", each with this suffix); the deadline
	// one is kept.
	if want := `: context deadline exceeded (Client.Timeout exceeded while awaiting headers)`; !strings.HasSuffix(err.Error(), want) {
		t.Errorf("error %q, want suffix %q", err, want)
	}
	if elapsed < timeout*9/10 || elapsed > 10*timeout {
		t.Errorf("fetch failed after %v, want about %v", elapsed, timeout)
	}
}

// headerRecorder is a RoundTripper that records every request header
// key it sees before handing the request on.
type headerRecorder struct {
	next http.RoundTripper
	mu   sync.Mutex
	keys map[string]bool
}

func (r *headerRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	r.mu.Lock()
	for k := range req.Header {
		r.keys[k] = true
	}
	r.mu.Unlock()
	return r.next.RoundTrip(req)
}

// TestFetchHeaderKeysCanonical checks that every header key the
// browser writes is already in canonical form — the request header map
// is built by direct assignment, so a non-canonical key would be
// invisible to Header.Get on the serving side.
func TestFetchHeaderKeysCanonical(t *testing.T) {
	// An engine with one epoch of history observed by criteo, so a
	// fetch- or iframe-type criteo call carries Sec-Browsing-Topics.
	tx := taxonomy.NewV2()
	clock := twNow
	eng := topics.NewEngine(tx, classifier.New(tx), topics.Config{
		Seed: 5, NoNoise: true,
		Now: func() time.Time { return clock },
	})
	for _, s := range []string{"news-site.com", "travel-site.com", "games-site.com", "pizza-site.com", "chess-site.com"} {
		eng.RecordVisit(s)
		eng.Observe(s, "criteo.com")
	}
	clock = clock.Add(topics.DefaultEpochDuration)
	eng.AdvanceEpoch()

	p, _ := twWorld.Catalog.ByDomain("criteo.com")
	site := findSite(t, func(s *webworld.Site) bool {
		return s.RedirectTo == "" && hasPlatform(s, "criteo.com") &&
			p.EnabledOn(s.Domain, twNow) && p.CallTypeFor(s.Domain) != dataset.CallJavaScript
	})
	client := twServer.Client()
	rec := &headerRecorder{next: client.Transport, keys: map[string]bool{}}
	client.Transport = rec
	b := New(Config{Client: client, ReferenceAllowlist: twAllow, Engine: eng, Now: func() time.Time { return twNow }})
	b.SetConsent(site.Domain)
	if _, err := b.LoadPage(context.Background(), site.Domain); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"User-Agent", VirtualTimeHeader, chaos.AttemptHeader, VantageHeader, "Referer", "Cookie", TopicsRequestHeader} {
		if !rec.keys[want] {
			t.Errorf("no request carried header %q", want)
		}
	}
	for k := range rec.keys {
		if k != http.CanonicalHeaderKey(k) {
			t.Errorf("header key %q is not canonical (%q)", k, http.CanonicalHeaderKey(k))
		}
	}
}
