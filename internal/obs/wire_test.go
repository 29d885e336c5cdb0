package obs

import (
	"bytes"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

func wireFixture() *Registry {
	r := NewRegistry()
	r.Add("visits_total", 41, "phase", "before_accept")
	r.Add("visits_total", 12, "phase", "after_accept")
	r.Add("errors_total", 3)
	r.Observe("stage_latency", 3*time.Millisecond, "stage", "fetch")
	r.Observe("stage_latency", 900*time.Millisecond, "stage", "fetch")
	r.Observe("stage_latency", 18*time.Hour, "stage", "fetch") // overflow bucket
	r.Observe("stage_latency", 2*time.Second, "stage", "classify")
	return r
}

// TestRegistryWireRoundTrip pins losslessness: a registry shipped
// through the JSON wire form and merged into an empty registry is
// indistinguishable from the original — including full bucket counts,
// which the Prometheus text form drops.
func TestRegistryWireRoundTrip(t *testing.T) {
	src := wireFixture()
	var buf bytes.Buffer
	if err := src.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRegistry(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.counters, src.counters) {
		t.Errorf("counters diverge: %v vs %v", got.counters, src.counters)
	}
	if len(got.hists) != len(src.hists) {
		t.Fatalf("histogram count %d, want %d", len(got.hists), len(src.hists))
	}
	for k, h := range src.hists {
		// Compare the lock-free distributions, not the Histogram
		// wrappers (vet flags copying their mutexes).
		if gotH, srcH := got.hists[k].snapshot(), h.snapshot(); gotH != srcH {
			t.Errorf("histogram %q diverges: %+v vs %+v", k, gotH, srcH)
		}
	}

	// Serialization is deterministic: equal state, equal bytes.
	var buf2 bytes.Buffer
	if err := got.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("round-tripped registry serializes to different bytes")
	}
}

// TestRegistryWireMergeEqualsInProcess proves the cross-process
// aggregation path: merging N worker registries via the wire form gives
// the same state as merging them in process.
func TestRegistryWireMergeEqualsInProcess(t *testing.T) {
	workers := []*Registry{wireFixture(), wireFixture(), NewRegistry()}
	workers[1].Add("visits_total", 5, "phase", "before_accept")
	workers[2].Observe("stage_latency", time.Minute, "stage", "fetch")

	inProc := NewRegistry()
	overWire := NewRegistry()
	for _, w := range workers {
		inProc.Merge(w)
		var buf bytes.Buffer
		if err := w.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		shipped, err := ReadRegistry(&buf)
		if err != nil {
			t.Fatal(err)
		}
		overWire.Merge(shipped)
	}
	if !reflect.DeepEqual(inProc.Snapshot(), overWire.Snapshot()) {
		t.Error("wire-merged registry diverges from in-process merge")
	}
}

func TestReadRegistryRejectsBadInput(t *testing.T) {
	if _, err := ReadRegistry(strings.NewReader(`{"version":99}`)); err == nil {
		t.Error("unsupported version accepted")
	}
	if _, err := ReadRegistry(strings.NewReader(`{bad json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := ReadRegistry(strings.NewReader(
		`{"version":1,"histograms":{"h":{"count":1,"buckets":[` + strings.Repeat("1,", 40) + `1]}}}`)); err == nil {
		t.Error("oversized bucket array accepted")
	}
}

// TestHandlerServesJSONFormat checks the /__metrics content
// negotiation: default stays Prometheus text, ?format=json serves the
// wire form.
func TestHandlerServesJSONFormat(t *testing.T) {
	r := wireFixture()
	h := Handler(r)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/__metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("default content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "visits_total") {
		t.Error("prom body missing counters")
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/__metrics?format=json", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("json content type %q", ct)
	}
	got, err := ReadRegistry(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Snapshot(), r.Snapshot()) {
		t.Error("handler JSON diverges from registry state")
	}
}
