package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

var testStart = time.Date(2024, 3, 30, 6, 0, 0, 0, time.UTC)

func TestTraceBuildsDeterministicTree(t *testing.T) {
	build := func() *Span {
		tr := NewTrace("visit", testStart, A("site", "example.com"))
		tr.Start("fetch", A("path", "/"))
		tr.Advance(FetchCost)
		tr.Start("script")
		tr.Advance(ScriptCost)
		tr.Annotate(A("calls", "2"))
		tr.End()
		tr.End()
		tr.Start("topics_call")
		tr.Advance(TopicsCallCost)
		tr.End()
		return tr.Finish()
	}
	root := build()
	if root.Name != "visit" {
		t.Fatalf("root name = %q", root.Name)
	}
	if got, want := len(root.Children), 2; got != want {
		t.Fatalf("root children = %d, want %d", got, want)
	}
	fetch := root.Children[0]
	if fetch.Duration() != FetchCost+ScriptCost {
		t.Errorf("fetch duration = %v, want %v", fetch.Duration(), FetchCost+ScriptCost)
	}
	script := fetch.Children[0]
	if script.Start != testStart.Add(FetchCost) {
		t.Errorf("script start = %v, want %v", script.Start, testStart.Add(FetchCost))
	}
	if root.Duration() != FetchCost+ScriptCost+TopicsCallCost {
		t.Errorf("root duration = %v", root.Duration())
	}

	a, _ := json.Marshal(build())
	b, _ := json.Marshal(build())
	if !bytes.Equal(a, b) {
		t.Fatalf("two identical builds marshal differently:\n%s\n%s", a, b)
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.Start("x")
	tr.Advance(time.Second)
	tr.Annotate(A("k", "v"))
	tr.End()
	if !tr.Now().IsZero() {
		t.Errorf("nil trace Now = %v", tr.Now())
	}
	if tr.Finish() != nil {
		t.Errorf("nil trace Finish != nil")
	}
}

func TestTraceFinishClosesOpenSpans(t *testing.T) {
	tr := NewTrace("visit", testStart)
	tr.Start("outer")
	tr.Advance(time.Millisecond)
	tr.Start("inner")
	tr.Advance(time.Millisecond)
	root := tr.Finish()
	var open int
	root.Walk(func(s *Span) {
		if s.End.IsZero() {
			open++
		}
	})
	if open != 0 {
		t.Fatalf("%d spans left open after Finish", open)
	}
	if root.End != testStart.Add(2*time.Millisecond) {
		t.Errorf("root end = %v", root.End)
	}
}

func TestTraceEndNeverClosesRoot(t *testing.T) {
	tr := NewTrace("visit", testStart)
	tr.End()
	tr.End()
	tr.Start("child")
	tr.End()
	tr.End() // extra End must be a no-op, not a panic or root close
	root := tr.Finish()
	if len(root.Children) != 1 {
		t.Fatalf("children = %d", len(root.Children))
	}
}

func TestSummaryFoldsOutcomesAndStages(t *testing.T) {
	s := NewSummary()
	mk := func(site, outcome string, cost time.Duration) *VisitTrace {
		tr := NewTrace("visit", testStart)
		tr.Start("fetch")
		tr.Advance(cost)
		tr.End()
		return &VisitTrace{Site: site, Rank: 1, Phase: "before_accept", Outcome: outcome, Root: tr.Finish()}
	}
	for _, v := range []*VisitTrace{
		mk("a.com", "ok", 10*time.Millisecond),
		mk("a.com", "ok", 20*time.Millisecond),
		mk("b.com", "partial", 30*time.Millisecond),
		mk("c.com", "error", 40*time.Millisecond),
	} {
		if err := s.WriteTrace(v); err != nil {
			t.Fatal(err)
		}
	}
	// After-Accept reload: a visit trace, but not a SuccessRate attempt.
	aaTr := NewTrace("visit", testStart)
	if err := s.WriteTrace(&VisitTrace{Site: "a.com", Rank: 1, Phase: "after_accept", Outcome: "ok", Root: aaTr.Finish()}); err != nil {
		t.Fatal(err)
	}
	// Campaign-level record: no site, must not count as a visit.
	attTr := NewTrace("attestation", testStart)
	if err := s.WriteTrace(&VisitTrace{Phase: "attestation", Root: attTr.Finish()}); err != nil {
		t.Fatal(err)
	}

	if s.Visits != 5 || s.Succeeded != 3 || s.Partial != 1 || s.Failed != 1 {
		t.Fatalf("visits=%d ok=%d partial=%d failed=%d", s.Visits, s.Succeeded, s.Partial, s.Failed)
	}
	if got := s.SiteCount(); got != 3 {
		t.Errorf("SiteCount = %d, want 3", got)
	}
	if got := s.SuccessRate(); got != 0.75 {
		t.Errorf("SuccessRate = %v, want 0.75 (ok + partial over Before-Accept visits)", got)
	}
	rows := s.StageBreakdown()
	if len(rows) == 0 || rows[0].Name != "fetch" && rows[0].Name != "visit" {
		t.Fatalf("unexpected breakdown %+v", rows)
	}
	var fetch *StageRow
	for i := range rows {
		if rows[i].Name == "fetch" {
			fetch = &rows[i]
		}
	}
	if fetch == nil || fetch.Count != 4 || fetch.Total != 100*time.Millisecond || fetch.Max != 40*time.Millisecond {
		t.Fatalf("fetch row = %+v", fetch)
	}
	if fetch.Mean != 25*time.Millisecond {
		t.Errorf("fetch mean = %v", fetch.Mean)
	}
}

func TestTraceWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewTraceWriter(&buf)
	sum := NewSummary()
	sink := Tee{w, sum}

	tr := NewTrace("visit", testStart, A("site", "example.com"))
	tr.Start("consent_click")
	tr.Advance(ConsentClickCost)
	tr.End()
	in := &VisitTrace{Site: "example.com", Rank: 3, Phase: "after_accept", Outcome: "ok", Root: tr.Finish()}
	if err := sink.WriteTrace(in); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if sum.Visits != 1 {
		t.Errorf("tee missed the summary: visits=%d", sum.Visits)
	}

	var got []*VisitTrace
	if err := ReadTraces(strings.NewReader(buf.String()), func(v *VisitTrace) error {
		got = append(got, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("read %d traces", len(got))
	}
	out := got[0]
	if out.Site != in.Site || out.Rank != in.Rank || out.Phase != in.Phase || out.Outcome != in.Outcome {
		t.Errorf("metadata mismatch: %+v vs %+v", out, in)
	}
	a, _ := json.Marshal(in.Root)
	b, _ := json.Marshal(out.Root)
	if !bytes.Equal(a, b) {
		t.Errorf("span tree changed over round trip:\n%s\n%s", a, b)
	}
}

func TestDecodeTraceRejectsRootless(t *testing.T) {
	if _, err := DecodeTrace([]byte(`{"site":"a.com"}`)); err == nil {
		t.Fatal("rootless record decoded without error")
	}
	if _, err := DecodeTrace([]byte(`{not json`)); err == nil {
		t.Fatal("malformed JSON decoded without error")
	}
}

func TestWritePromDeterministic(t *testing.T) {
	mk := func() *Registry {
		r := NewRegistry()
		r.Add("visits_total", 3, "outcome", "ok", "phase", "before_accept")
		r.Add("visits_total", 1, "phase", "before_accept", "outcome", "error") // label order must not matter
		r.Observe("stage_latency", 12*time.Millisecond, "stage", "fetch")
		r.Observe("stage_latency", 48*time.Millisecond, "stage", "fetch")
		return r
	}
	var a, b bytes.Buffer
	if err := mk().WriteProm(&a); err != nil {
		t.Fatal(err)
	}
	if err := mk().WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("prom output not deterministic:\n%s\n---\n%s", a.String(), b.String())
	}
	for _, want := range []string{
		`visits_total{outcome="ok",phase="before_accept"} 3`,
		`visits_total{outcome="error",phase="before_accept"} 1`,
		`stage_latency_count{stage="fetch"} 2`,
	} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("prom output missing %q:\n%s", want, a.String())
		}
	}
}

func TestSnapshotCounterLookup(t *testing.T) {
	r := NewRegistry()
	r.Add("calls_total", 5, "type", "observe")
	snap := r.Snapshot()
	if got := snap.Counter("calls_total", "type", "observe"); got != 5 {
		t.Errorf("Counter = %d", got)
	}
	if got := snap.Counter("calls_total", "type", "direct"); got != 0 {
		t.Errorf("absent Counter = %d", got)
	}
}

func TestHistogramQuantileClamped(t *testing.T) {
	var h histogram
	for i := 0; i < 100; i++ {
		h.observe(3 * time.Millisecond)
	}
	for d := 1; d <= 9; d++ {
		q := h.quantile(float64(d) / 10)
		if q != 3*time.Millisecond {
			t.Errorf("p%d0 = %v, want 3ms (clamped to max)", d, q)
		}
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Add("x", 1)
	r.Observe("y", time.Second)
	r.Merge(NewRegistry())
	if err := r.WriteProm(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}
