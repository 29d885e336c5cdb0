package stats

import (
	"fmt"
	"strings"
)

// BarChart renders horizontal ASCII bars, the textual equivalent of the
// paper's figure panels: one labelled bar per series point, scaled to
// the maximum value.
type BarChart struct {
	Title string
	// Width is the maximum bar width in characters (default 40).
	Width int
	rows  []barRow
}

type barRow struct {
	label   string
	value   float64
	display string
}

// Add appends a bar; display is the value text printed after the bar
// (e.g. "611" or "55.2%").
func (c *BarChart) Add(label string, value float64, display string) {
	c.rows = append(c.rows, barRow{label: label, value: value, display: display})
}

// AddPair appends a two-tone bar for "filled of total" data such as
// Figure 2's "CP present and called" over "present" bars: the filled
// part uses '█', the remainder '░'.
func (c *BarChart) AddPair(label string, filled, total float64, display string) {
	c.rows = append(c.rows, barRow{label: label, value: total, display: display + pairMarker(filled, total)})
}

// pairMarker encodes the filled fraction so Render can split the bar.
func pairMarker(filled, total float64) string {
	if total <= 0 {
		return "\x00" + "0"
	}
	return fmt.Sprintf("\x00%.6f", filled/total)
}

// Render draws the chart.
func (c *BarChart) Render() string {
	width := c.Width
	if width <= 0 {
		width = 40
	}
	var maxVal float64
	maxLabel := 0
	for _, r := range c.rows {
		if r.value > maxVal {
			maxVal = r.value
		}
		if len([]rune(r.label)) > maxLabel {
			maxLabel = len([]rune(r.label))
		}
	}
	var b strings.Builder
	if c.Title != "" {
		b.WriteString(c.Title)
		b.WriteByte('\n')
	}
	for _, r := range c.rows {
		display := r.display
		frac := -1.0
		if i := strings.IndexByte(display, '\x00'); i >= 0 {
			fmt.Sscanf(display[i+1:], "%f", &frac)
			display = display[:i]
		}
		n := 0
		if maxVal > 0 {
			n = int(r.value / maxVal * float64(width))
		}
		bar := strings.Repeat("█", n)
		if frac >= 0 && n > 0 {
			f := int(float64(frac*float64(n)) + 0.5) // rounded before the add: no FMA
			if f > n {
				f = n
			}
			bar = strings.Repeat("█", f) + strings.Repeat("░", n-f)
		}
		fmt.Fprintf(&b, "%-*s |%s %s\n", maxLabel, r.label, bar, display)
	}
	return b.String()
}
