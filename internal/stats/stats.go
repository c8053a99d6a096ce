// Package stats provides the means and table rendering used by every
// experiment harness in the repository.
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// GeoMean returns the geometric mean of the inputs, ignoring non-positive
// values (which would otherwise collapse the product to zero). It returns
// zero when no positive values exist.
func GeoMean(xs []float64) float64 {
	var sum float64
	var n int
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Mean returns the arithmetic mean of xs, or zero for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Table accumulates rows and renders them as GitHub-flavoured markdown or
// CSV; every experiment binary reports through it so figures and tables have
// a uniform, diffable format.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// SortByColumn sorts rows lexicographically by the given column index.
func (t *Table) SortByColumn(col int) {
	sort.SliceStable(t.rows, func(i, j int) bool { return t.rows[i][col] < t.rows[j][col] })
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Headers returns a copy of the column headers.
func (t *Table) Headers() []string {
	out := make([]string, len(t.headers))
	copy(out, t.headers)
	return out
}

// Row returns a copy of data row i, as rendered.
func (t *Table) Row(i int) []string {
	out := make([]string, len(t.rows[i]))
	copy(out, t.rows[i])
	return out
}

// WriteMarkdown renders the table as GitHub-flavoured markdown.
func (t *Table) WriteMarkdown(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "\n### %s\n\n", t.Title); err != nil {
			return err
		}
	}
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	pad := func(s string, n int) string { return s + strings.Repeat(" ", n-len(s)) }
	cells := make([]string, len(t.headers))
	for i, h := range t.headers {
		cells[i] = pad(h, widths[i])
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | ")); err != nil {
		return err
	}
	for i := range cells {
		cells[i] = strings.Repeat("-", widths[i])
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | ")); err != nil {
		return err
	}
	for _, row := range t.rows {
		for i := range cells {
			if i < len(row) {
				cells[i] = pad(row[i], widths[i])
			} else {
				cells[i] = pad("", widths[i])
			}
		}
		if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | ")); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV renders the table as CSV (no quoting: experiment values never
// contain commas).
func (t *Table) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.headers, ",")); err != nil {
		return err
	}
	for _, row := range t.rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// FormatFloat renders a float compactly: scientific notation for very small
// or very large magnitudes, fixed point otherwise.
func FormatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) < 1e-3 || math.Abs(v) >= 1e7:
		return fmt.Sprintf("%.3e", v)
	case math.Abs(v) < 1:
		return fmt.Sprintf("%.4f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// FormatBytes renders a byte count with a binary-unit suffix.
func FormatBytes(b float64) string {
	units := []string{"B", "KiB", "MiB", "GiB", "TiB", "PiB"}
	i := 0
	for math.Abs(b) >= 1024 && i < len(units)-1 {
		b /= 1024
		i++
	}
	if i == 0 {
		return fmt.Sprintf("%.0f%s", b, units[i])
	}
	return fmt.Sprintf("%.2f%s", b, units[i])
}
