// Package stats holds small numeric and text-rendering helpers shared by
// the analysis pipeline: counters, shares, and aligned ASCII tables used
// to print the paper's tables and figure data as text.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Share returns num/den as a fraction, 0 when den is 0.
func Share(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Pct renders a fraction as "12.3%".
func Pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

// Counter counts string keys.
type Counter map[string]int

// Add increments a key.
func (c Counter) Add(key string) { c[key]++ }

// Total sums all counts.
func (c Counter) Total() int {
	t := 0
	for _, n := range c {
		t += n
	}
	return t
}

// KV is a key with its count.
type KV struct {
	Key   string
	Count int
}

// Sorted returns entries by descending count, ties by key.
func (c Counter) Sorted() []KV {
	out := make([]KV, 0, len(c))
	for k, n := range c {
		out = append(out, KV{k, n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Top returns at most n leading entries of Sorted.
func (c Counter) Top(n int) []KV {
	s := c.Sorted()
	if len(s) > n {
		s = s[:n]
	}
	return s
}

// Table renders aligned ASCII tables.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render draws the table with column alignment.
func (t *Table) Render() string {
	cols := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(row []string) {
		for i, cell := range row {
			if w := len([]rune(cell)); w > widths[i] {
				widths[i] = w
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.Rows {
		measure(r)
	}

	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(row []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	if len(t.Headers) > 0 {
		writeRow(t.Headers)
		sep := make([]string, cols)
		for i := range sep {
			sep[i] = strings.Repeat("-", widths[i])
		}
		writeRow(sep)
	}
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}
