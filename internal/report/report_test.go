package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tbl := NewTable("title", "name", "value")
	tbl.AddRow("alpha", "1")
	tbl.AddRowf("beta", 2.5)
	out := tbl.String()
	if !strings.Contains(out, "title") || !strings.Contains(out, "alpha") || !strings.Contains(out, "2.500") {
		t.Errorf("rendering:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("%d lines:\n%s", len(lines), out)
	}
	// Columns align: the last column starts at the same offset on every
	// header/data line.
	col := strings.Index(lines[1], "value")
	for _, ln := range lines[3:] {
		cells := strings.Fields(ln)
		if got := strings.LastIndex(ln, cells[len(cells)-1]); got != col {
			t.Errorf("last column at %d, want %d:\n%s", got, col, out)
		}
	}
	// No line carries trailing whitespace.
	for i, ln := range lines {
		if ln != strings.TrimRight(ln, " ") {
			t.Errorf("line %d has trailing whitespace: %q", i, ln)
		}
	}
}

func TestAddRowfFloat32(t *testing.T) {
	tbl := NewTable("", "v")
	tbl.AddRowf(float32(2.5))
	if out := tbl.String(); !strings.Contains(out, "2.500") {
		t.Errorf("float32 must render like float64:\n%s", out)
	}
}

func TestAddRowPadsAndTruncates(t *testing.T) {
	tbl := NewTable("", "a", "b")
	tbl.AddRow("only")
	tbl.AddRow("x", "y", "z-ignored")
	out := tbl.String()
	if strings.Contains(out, "ignored") {
		t.Error("extra cells must be dropped")
	}
}
