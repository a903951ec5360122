// Package report renders experiment results as fixed-width text tables
// — the form every figure/table regeneration harness prints its rows in.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a fixed-width text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped,
// missing cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddRowf appends a row of formatted cells; each argument is rendered
// with %v unless it is a float64 or float32, which render with %.3f.
func (t *Table) AddRowf(cells ...any) {
	out := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			out[i] = fmt.Sprintf("%.3f", v)
		case float32:
			out[i] = fmt.Sprintf("%.3f", v)
		case string:
			out[i] = v
		default:
			out[i] = fmt.Sprintf("%v", v)
		}
	}
	t.AddRow(out...)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	// The last column is never right-padded, so no line carries trailing
	// whitespace.
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			if i == len(cells)-1 {
				sb.WriteString(c)
			} else {
				sb.WriteString(pad(c, widths[i]))
			}
		}
		sb.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprint(w, sb.String())
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}
