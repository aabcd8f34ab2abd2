// Package report renders evaluation results as aligned text tables and
// figure data series, the forms in which cmd/suittables regenerates every
// table and figure of the paper.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title  string
	Header []string
	rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	for len(cells) < len(t.Header) {
		cells = append(cells, "")
	}
	t.rows = append(t.rows, cells)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len([]rune(h))
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len([]rune(c)) > widths[i] {
				widths[i] = len([]rune(c))
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if pad := widths[i] - len([]rune(c)); pad > 0 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Render(&b)
	return b.String()
}

// Pct formats a relative change as a signed percentage ("+3.8 %").
func Pct(x float64) string {
	return fmt.Sprintf("%+.1f %%", x*100)
}

// Pct2 formats with two decimals for small effects ("+0.03 %").
func Pct2(x float64) string {
	return fmt.Sprintf("%+.2f %%", x*100)
}

// Series is one figure data series: (x, y) points with axis labels,
// emitted as CSV so the figures can be re-plotted with any tool.
type Series struct {
	Name   string
	XLabel string
	YLabel string
	X      []float64
	Y      []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// WriteCSV emits "# name / xlabel,ylabel / points" CSV to w.
func (s *Series) WriteCSV(w io.Writer) error {
	if len(s.X) != len(s.Y) {
		return fmt.Errorf("report: series %q has %d x vs %d y", s.Name, len(s.X), len(s.Y))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n%s,%s\n", s.Name, s.XLabel, s.YLabel)
	for i := range s.X {
		fmt.Fprintf(&b, "%g,%g\n", s.X[i], s.Y[i])
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Histogram renders labelled counts as a horizontal bar chart scaled to
// width characters — the gap-size histograms of §5.1 in terminal form.
func Histogram(w io.Writer, title string, labels []string, counts []uint64, width int) error {
	if len(labels) != len(counts) {
		return fmt.Errorf("report: %d labels for %d counts", len(labels), len(counts))
	}
	if width <= 0 {
		width = 50
	}
	var max uint64
	labelW := 0
	for i, c := range counts {
		if c > max {
			max = c
		}
		if l := len([]rune(labels[i])); l > labelW {
			labelW = l
		}
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	for i, c := range counts {
		bar := 0
		if max > 0 {
			bar = int(float64(c) / float64(max) * float64(width))
		}
		if c > 0 && bar == 0 {
			bar = 1 // nonzero buckets stay visible
		}
		fmt.Fprintf(&b, "%-*s |%s %d\n", labelW, labels[i], strings.Repeat("█", bar), c)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Sparkline renders the series' y values as a unicode mini-chart, handy
// for eyeballing figure shapes in a terminal.
func (s *Series) Sparkline() string {
	if len(s.Y) == 0 {
		return ""
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	min, max := s.Y[0], s.Y[0]
	for _, y := range s.Y {
		if y < min {
			min = y
		}
		if y > max {
			max = y
		}
	}
	var b strings.Builder
	for _, y := range s.Y {
		idx := 0
		if max > min {
			idx = int((y - min) / (max - min) * float64(len(blocks)-1))
		}
		b.WriteRune(blocks[idx])
	}
	return b.String()
}
