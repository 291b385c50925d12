// Package plot renders the experiment outputs: ASCII line charts for the
// paper's figures, aligned text tables for its tables, and CSV series for
// external tooling. Go has no standard plotting stack and this repository
// is dependency-free, so figures are textual; the CSV files carry the full
// numeric series for anyone who wants to re-plot them.
package plot

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

// Series is one named trace of an ASCII chart.
type Series struct {
	// Name appears in the legend.
	Name string
	// X and Y are the data (equal length).
	X, Y []float64
}

// markers are cycled across series.
var markers = []byte{'*', '+', 'o', 'x', '#', '@', '%', '~'}

// Chart is a multi-series ASCII line chart.
type Chart struct {
	// Title, XLabel and YLabel annotate the chart.
	Title  string
	XLabel string
	YLabel string
	// Width and Height are the plotting-area dimensions in characters.
	// Zero values default to 72x20.
	Width, Height int
	// LogX plots the x axis logarithmically (x must be positive).
	LogX bool
	// Series holds the traces.
	Series []Series
}

// Add appends a series.
func (c *Chart) Add(name string, x, y []float64) {
	c.Series = append(c.Series, Series{Name: name, X: x, Y: y})
}

// Render draws the chart. It returns an error when there is nothing to
// plot or a series is malformed.
func (c *Chart) Render() (string, error) {
	if len(c.Series) == 0 {
		return "", errors.New("plot: chart has no series")
	}
	width, height := c.Width, c.Height
	if width <= 0 {
		width = 72
	}
	if height <= 0 {
		height = 20
	}
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		if len(s.X) != len(s.Y) {
			return "", fmt.Errorf("plot: series %q has %d x values but %d y values", s.Name, len(s.X), len(s.Y))
		}
		if len(s.X) == 0 {
			return "", fmt.Errorf("plot: series %q is empty", s.Name)
		}
		for i := range s.X {
			x := s.X[i]
			if c.LogX {
				if x <= 0 {
					return "", fmt.Errorf("plot: series %q has non-positive x=%g on a log axis", s.Name, x)
				}
				x = math.Log10(x)
			}
			xmin, xmax = math.Min(xmin, x), math.Max(xmax, x)
			ymin, ymax = math.Min(ymin, s.Y[i]), math.Max(ymax, s.Y[i])
		}
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range c.Series {
		marker := markers[si%len(markers)]
		for i := range s.X {
			x := s.X[i]
			if c.LogX {
				x = math.Log10(x)
			}
			col := int((x - xmin) / (xmax - xmin) * float64(width-1))
			row := height - 1 - int((s.Y[i]-ymin)/(ymax-ymin)*float64(height-1))
			grid[row][col] = marker
		}
	}

	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	if c.YLabel != "" {
		fmt.Fprintf(&b, "%s\n", c.YLabel)
	}
	labelW := 11
	for r, row := range grid {
		yv := ymax - (ymax-ymin)*float64(r)/float64(height-1)
		label := " "
		if r == 0 || r == height-1 || r == height/2 {
			label = fmt.Sprintf("%10.3g", yv)
		}
		fmt.Fprintf(&b, "%*s |%s\n", labelW-1, label, string(row))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", labelW-1), strings.Repeat("-", width))
	// X tick labels at the extremes.
	loLabel, hiLabel := c.xTick(xmin), c.xTick(xmax)
	pad := width - len(loLabel) - len(hiLabel)
	if pad < 1 {
		pad = 1
	}
	fmt.Fprintf(&b, "%s  %s%s%s\n", strings.Repeat(" ", labelW-1), loLabel, strings.Repeat(" ", pad), hiLabel)
	if c.XLabel != "" {
		fmt.Fprintf(&b, "%s  %s\n", strings.Repeat(" ", labelW-1), c.XLabel)
	}
	for si, s := range c.Series {
		fmt.Fprintf(&b, "  %c %s\n", markers[si%len(markers)], s.Name)
	}
	return b.String(), nil
}

func (c *Chart) xTick(x float64) string {
	if c.LogX {
		return fmt.Sprintf("%.4g", math.Pow(10, x))
	}
	return fmt.Sprintf("%.4g", x)
}

// Table is an aligned text table.
type Table struct {
	// Title is printed above the table when non-empty.
	Title string
	// Headers names the columns.
	Headers []string
	rows    [][]string
}

// AddRow appends a row; it returns an error on column-count mismatch.
func (t *Table) AddRow(cells ...string) error {
	if len(cells) != len(t.Headers) {
		return fmt.Errorf("plot: row has %d cells, table has %d columns", len(cells), len(t.Headers))
	}
	t.rows = append(t.rows, cells)
	return nil
}

// MustAddRow is AddRow for rows whose arity is fixed at the call site; it
// panics on mismatch.
func (t *Table) MustAddRow(cells ...string) {
	if err := t.AddRow(cells...); err != nil {
		panic(err)
	}
}

// Render draws the table.
func (t *Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
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
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := len(t.Headers)*2 - 2
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// WriteCSV writes column-oriented float data with a header row. All
// columns must share one length.
func WriteCSV(w io.Writer, headers []string, cols ...[]float64) error {
	if len(headers) != len(cols) {
		return fmt.Errorf("plot: %d headers for %d columns", len(headers), len(cols))
	}
	if len(cols) == 0 {
		return errors.New("plot: no columns")
	}
	n := len(cols[0])
	for i, c := range cols {
		if len(c) != n {
			return fmt.Errorf("plot: column %q has %d rows, expected %d", headers[i], len(c), n)
		}
	}
	if _, err := fmt.Fprintln(w, strings.Join(headers, ",")); err != nil {
		return err
	}
	for r := 0; r < n; r++ {
		for i := range cols {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%g", cols[i][r]); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}
