package chaos

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func testConfig() Config {
	return Config{
		Enabled:            true,
		Seed:               42,
		HardDownRate:       0.05,
		FlakyRate:          0.4,
		FaultRate:          0.5,
		LatencyRate:        0.3,
		MaxLatency:         45 * time.Second,
		TimeoutAfter:       30 * time.Second,
		HTTP5xxWeight:      0.4,
		ResetWeight:        0.4,
		TruncateWeight:     0.2,
		WellKnownFlakyRate: 0.3,
		WellKnownFaultRate: 0.8,
	}
}

func TestDecideDeterministic(t *testing.T) {
	cfg := testConfig()
	for i := 0; i < 200; i++ {
		host := fmt.Sprintf("site-%d.example", i)
		d1 := cfg.Decide(host, "/", "2024-03-30T06:00:00Z", "0")
		d2 := cfg.Decide(host, "/", "2024-03-30T06:00:00Z", "0")
		if d1 != d2 {
			t.Fatalf("decision for %s not deterministic: %+v vs %+v", host, d1, d2)
		}
	}
}

func TestDecideKeysOnCoordinates(t *testing.T) {
	cfg := testConfig()
	// Find a flaky, not hard-down host and show that time and attempt
	// redraw the coin while repetition does not.
	varied := false
	for i := 0; i < 500 && !varied; i++ {
		host := fmt.Sprintf("flaky-%d.example", i)
		p := cfg.ProfileFor(host)
		if !p.Flaky || p.HardDown {
			continue
		}
		base := cfg.Decide(host, "/", "t0", "0")
		if cfg.Decide(host, "/", "t1", "0") != base || cfg.Decide(host, "/", "t0", "1") != base {
			varied = true
		}
	}
	if !varied {
		t.Error("no flaky host's decision ever varied with time or attempt")
	}
}

func TestHardDownHostsAlwaysRefused(t *testing.T) {
	cfg := testConfig()
	found := 0
	for i := 0; i < 500; i++ {
		host := fmt.Sprintf("down-%d.example", i)
		if !cfg.ProfileFor(host).HardDown {
			continue
		}
		found++
		for attempt := 0; attempt < 5; attempt++ {
			d := cfg.Decide(host, "/", "t", fmt.Sprint(attempt))
			if d.Class != ClassRefused {
				t.Fatalf("hard-down host %s attempt %d: %+v", host, attempt, d)
			}
		}
	}
	if found == 0 {
		t.Error("no hard-down hosts at a 5% rate over 500 hosts")
	}
}

func TestDisabledConfigInjectsNothing(t *testing.T) {
	cfg := testConfig()
	cfg.Enabled = false
	for i := 0; i < 100; i++ {
		if d := cfg.Decide(fmt.Sprintf("h%d.example", i), "/", "t", "0"); d != (Decision{}) {
			t.Fatalf("disabled config decided %+v", d)
		}
	}
}

func TestFaultMixCoversEveryClass(t *testing.T) {
	cfg := testConfig()
	seen := map[Class]int{}
	for i := 0; i < 3000; i++ {
		d := cfg.Decide(fmt.Sprintf("host-%d.example", i), "/", "t", "0")
		seen[d.Class]++
	}
	for _, c := range []Class{ClassNone, ClassTimeout, ClassRefused, ClassReset, ClassHTTP5xx, ClassTruncated} {
		if seen[c] == 0 {
			t.Errorf("class %q never drawn: %v", c, seen)
		}
	}
	if seen[ClassNone] < seen[ClassReset] {
		t.Errorf("fault-free should dominate: %v", seen)
	}
}

func TestWellKnownFlakiness(t *testing.T) {
	cfg := testConfig()
	cfg.FlakyRate = 0 // isolate the well-known profile
	cfg.LatencyRate = 0
	faults := 0
	for i := 0; i < 1000; i++ {
		host := fmt.Sprintf("platform-%d.example", i)
		p := cfg.ProfileFor(host)
		if p.HardDown || !p.WellKnownFlaky {
			continue
		}
		if d := cfg.Decide(host, "/", "t", "0"); d.Class != ClassNone {
			t.Fatalf("non-well-known path faulted on %s: %+v", host, d)
		}
		if d := cfg.Decide(host, wellKnownPath, "t", "0"); d.Class != ClassNone {
			faults++
		}
	}
	if faults == 0 {
		t.Error("flaky well-known endpoints never faulted")
	}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func okTransport(body string) http.RoundTripper {
	return roundTripFunc(func(r *http.Request) (*http.Response, error) {
		return &http.Response{
			StatusCode: 200,
			Body:       io.NopCloser(strings.NewReader(body)),
			Header:     http.Header{},
			Request:    r,
		}, nil
	})
}

// TestInjectorLatencyCopiesSharedHeader hands the injector responses
// that all share one read-only header map, as the in-process transport
// does: a delayed response gets the latency header in a map of its own,
// and the shared map never sees it.
func TestInjectorLatencyCopiesSharedHeader(t *testing.T) {
	shared := http.Header{"Content-Type": {"image/gif"}}
	next := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		return &http.Response{StatusCode: 200, Body: http.NoBody, Header: shared, Request: r}, nil
	})
	delayed := NewInjector(Config{Enabled: true, Seed: 1, FlakyRate: 1, LatencyRate: 1, MaxLatency: time.Second}, next)
	for i := 0; i < 3; i++ {
		resp, err := delayed.RoundTrip(httptest.NewRequest("GET", fmt.Sprintf("http://host-%d.example/px.gif", i), nil))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Header.Get(LatencyHeader) == "" || resp.Header.Get("Content-Type") != "image/gif" {
			t.Errorf("delayed response header %v", resp.Header)
		}
	}
	if len(shared) != 1 {
		t.Errorf("the injector wrote into the shared header map: %v", shared)
	}
}

func TestInjectorFaults(t *testing.T) {
	in := NewInjector(testConfig(), okTransport("hello world, a longer body"))
	classes := map[Class]int{}
	for i := 0; i < 2000; i++ {
		req := httptest.NewRequest("GET", fmt.Sprintf("http://host-%d.example/", i), nil)
		resp, err := in.RoundTrip(req)
		switch {
		case err != nil:
			var ce *Error
			if !errors.As(err, &ce) {
				t.Fatalf("untyped injected error: %v", err)
			}
			classes[ce.Class]++
		case resp.StatusCode >= 500:
			classes[ClassHTTP5xx]++
			resp.Body.Close()
		default:
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr != nil {
				if Classify(rerr) != ClassTruncated {
					t.Fatalf("unexpected body error: %v", rerr)
				}
				if len(body) >= len("hello world, a longer body") {
					t.Fatal("truncated body not actually shorter")
				}
				classes[ClassTruncated]++
			}
		}
	}
	for _, c := range []Class{ClassTimeout, ClassRefused, ClassReset, ClassHTTP5xx, ClassTruncated} {
		if classes[c] == 0 {
			t.Errorf("injector never produced %q: %v", c, classes)
		}
	}
	snap := in.Stats().Snapshot()
	if snap.Requests != 2000 || snap.InjectedTotal() == 0 {
		t.Errorf("stats: %+v", snap)
	}
	if snap.String() == "" {
		t.Error("empty stats string")
	}
}

func TestHandlerFaultsOverTCP(t *testing.T) {
	backend := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "a reasonably sized backend response body")
	})
	h := NewHandler(testConfig(), backend)
	srv := httptest.NewServer(h)
	defer srv.Close()

	classes := map[Class]int{}
	for i := 0; i < 600; i++ {
		req, _ := http.NewRequest("GET", srv.URL+"/", nil)
		req.Host = fmt.Sprintf("host-%d.example", i)
		resp, err := srv.Client().Do(req)
		if err != nil {
			classes[ClassReset]++ // aborted connection
			continue
		}
		if resp.StatusCode >= 500 {
			classes[ClassHTTP5xx]++
			resp.Body.Close()
			continue
		}
		_, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			classes[ClassTruncated]++
		}
	}
	if classes[ClassReset] == 0 || classes[ClassHTTP5xx] == 0 || classes[ClassTruncated] == 0 {
		t.Errorf("handler fault mix incomplete: %v", classes)
	}
	if h.Stats().Snapshot().InjectedTotal() == 0 {
		t.Error("handler stats empty")
	}
}

func TestNumClassesTracksClasses(t *testing.T) {
	if numClasses != len(Classes) {
		t.Fatalf("numClasses = %d, len(Classes) = %d", numClasses, len(Classes))
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{nil, ClassNone},
		{&Error{Class: ClassReset, Host: "x"}, ClassReset},
		{fmt.Errorf("wrapping: %w", &Error{Class: ClassTruncated, Host: "x"}), ClassTruncated},
		{&Error{Class: ClassTimeout, Host: "x"}, ClassTimeout},
		{errors.New("dial tcp 1.2.3.4:80: connection refused"), ClassRefused},
		{errors.New("lookup nope.example: no such host"), ClassDNS},
		{errors.New("read tcp: connection reset by peer"), ClassReset},
		{errors.New("browser: loading x: status 502"), ClassHTTP5xx},
		{errors.New("reading body: unexpected EOF"), ClassTruncated},
		{errors.New("something else entirely"), ClassOther},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %q, want %q", c.err, got, c.want)
		}
	}
	if !Retryable(ClassTimeout) || !Retryable(ClassHTTP5xx) {
		t.Error("transient classes must be retryable")
	}
	if Retryable(ClassRefused) || Retryable(ClassDNS) || Retryable(ClassCircuitOpen) {
		t.Error("permanent classes must not be retryable")
	}
}
