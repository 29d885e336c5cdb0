package stats

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestShareAndPct(t *testing.T) {
	if Share(1, 4) != 0.25 {
		t.Error("Share(1,4)")
	}
	if Share(1, 0) != 0 {
		t.Error("Share by zero must be 0")
	}
	if got := Pct(0.4567); got != "45.7%" {
		t.Errorf("Pct = %q", got)
	}
}

func TestCounter(t *testing.T) {
	c := Counter{}
	for _, k := range []string{"a", "b", "a", "c", "a", "b"} {
		c.Add(k)
	}
	if c.Total() != 6 {
		t.Errorf("Total = %d", c.Total())
	}
	want := []KV{{"a", 3}, {"b", 2}, {"c", 1}}
	if got := c.Sorted(); !reflect.DeepEqual(got, want) {
		t.Errorf("Sorted = %v", got)
	}
	if got := c.Top(2); !reflect.DeepEqual(got, want[:2]) {
		t.Errorf("Top(2) = %v", got)
	}
	// Ties break by key.
	tie := Counter{"z": 1, "a": 1}
	if got := tie.Sorted(); got[0].Key != "a" {
		t.Errorf("tie order: %v", got)
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{Title: "T", Headers: []string{"name", "n"}}
	tb.AddRow("alpha", 1)
	tb.AddRow("a", 100)
	tb.AddRow("pi", 3.14159)
	out := tb.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "T" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "name ") {
		t.Errorf("header line = %q", lines[1])
	}
	if !strings.Contains(out, "3.14") {
		t.Error("float not formatted")
	}
	// Title + header + separator + three rows.
	if len(lines) != 6 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
}

func TestTableNoHeaders(t *testing.T) {
	tb := &Table{}
	tb.AddRow("x", "y")
	out := tb.Render()
	if strings.Contains(out, "--") {
		t.Error("separator printed without headers")
	}
}

// Property: Counter.Total equals the number of Adds; Sorted is
// monotonically non-increasing.
func TestCounterProperties(t *testing.T) {
	f := func(keys []uint8) bool {
		c := Counter{}
		for _, k := range keys {
			c.Add(string(rune('a' + k%16)))
		}
		if c.Total() != len(keys) {
			return false
		}
		s := c.Sorted()
		for i := 1; i < len(s); i++ {
			if s[i].Count > s[i-1].Count {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBarChart(t *testing.T) {
	c := &BarChart{Title: "demo", Width: 10}
	c.Add("alpha", 100, "100")
	c.Add("beta", 50, "50")
	c.Add("empty", 0, "0")
	out := c.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "demo" {
		t.Errorf("title = %q", lines[0])
	}
	if !strings.Contains(lines[1], strings.Repeat("█", 10)) {
		t.Errorf("full bar wrong: %q", lines[1])
	}
	if !strings.Contains(lines[2], strings.Repeat("█", 5)) || strings.Contains(lines[2], strings.Repeat("█", 6)) {
		t.Errorf("half bar wrong: %q", lines[2])
	}
	if strings.Contains(lines[3], "█") {
		t.Errorf("zero bar drew: %q", lines[3])
	}
}

func TestBarChartPair(t *testing.T) {
	c := &BarChart{Width: 10}
	c.AddPair("x", 5, 10, "5/10")
	out := c.Render()
	if !strings.Contains(out, "█████░░░░░") {
		t.Errorf("pair bar = %q", out)
	}
	if !strings.Contains(out, "5/10") {
		t.Errorf("display lost: %q", out)
	}
	// Zero totals do not divide by zero.
	c2 := &BarChart{Width: 10}
	c2.AddPair("y", 0, 0, "0/0")
	if out := c2.Render(); !strings.Contains(out, "0/0") {
		t.Errorf("zero pair = %q", out)
	}
}
