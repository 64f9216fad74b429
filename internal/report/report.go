// Package report renders the analysis results as the tables and figure
// series the paper presents: aligned ASCII tables for Tables 1–7 and
// text-based series/heatmaps for Figures 1–8, plus CSV output for external
// plotting.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table writes an aligned ASCII table. Every row must have len(headers)
// cells.
func Table(w io.Writer, title string, headers []string, rows [][]string) {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if title != "" {
		fmt.Fprintf(w, "%s\n", title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
}

// CSV writes rows as comma-separated values with minimal quoting, one
// write per row, and returns the first write error.
func CSV(w io.Writer, headers []string, rows [][]string) error {
	var b strings.Builder
	writeRow := func(cells []string) error {
		b.Reset()
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
		_, err := io.WriteString(w, b.String())
		return err
	}
	if err := writeRow(headers); err != nil {
		return err
	}
	for _, row := range rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// Bar renders a horizontal bar of width proportional to value/max (max
// width 40 runes).
func Bar(value, max float64) string {
	const width = 40
	if max <= 0 {
		return ""
	}
	n := int(value / max * width)
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}

// F formats a float with two decimals, the paper's table style.
func F(x float64) string { return fmt.Sprintf("%.2f", x) }

// Pct formats a share as a percentage.
func Pct(x float64) string { return fmt.Sprintf("%.0f%%", x*100) }

// Count formats an integer with thousands separators, as the paper prints
// large counts.
func Count(n int) string {
	s := fmt.Sprintf("%d", n)
	if n < 0 {
		return s
	}
	var b strings.Builder
	pre := len(s) % 3
	if pre > 0 {
		b.WriteString(s[:pre])
	}
	for i := pre; i < len(s); i += 3 {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s[i : i+3])
	}
	return b.String()
}
