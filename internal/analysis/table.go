package analysis

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is a small text/CSV table renderer for experiment outputs, so
// the benchmark harness prints the same rows dyna tables prints and the
// TestEkShape tests pin.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
	notes   []string
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// AddRowf appends a row of formatted values: each argument is rendered
// with %v, floats with %.4g.
func (t *Table) AddRowf(values ...interface{}) {
	cells := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			cells[i] = fmt.Sprintf("%.4g", x)
		case float32:
			cells[i] = fmt.Sprintf("%.4g", x)
		default:
			cells[i] = fmt.Sprintf("%v", v)
		}
	}
	t.AddRow(cells...)
}

// AddNote appends a free-form footnote rendered under the table.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// Rows returns the row count.
func (t *Table) Rows() int { return len(t.rows) }

// Cell returns the rendered cell (row, col), empty when out of range.
func (t *Table) Cell(row, col int) string {
	if row < 0 || row >= len(t.rows) || col < 0 || col >= len(t.Columns) {
		return ""
	}
	return t.rows[row][col]
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	for _, n := range t.notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	if err := t.Fprint(&b); err != nil {
		return fmt.Sprintf("table render error: %v", err)
	}
	return b.String()
}

// WriteCSV renders the table (headers + rows) as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return fmt.Errorf("analysis: csv header: %w", err)
	}
	for i, row := range t.rows {
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("analysis: csv row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
