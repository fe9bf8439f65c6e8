package harness

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Table is a rendered experiment table.
type Table struct {
	ID      string // e.g. "Table 1"
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row; values are stringified with sensible precision.
func (t *Table) AddRow(vals ...interface{}) {
	row := make([]string, len(vals))
	for i, v := range vals {
		row[i] = formatCell(v)
	}
	t.Rows = append(t.Rows, row)
}

func formatCell(v interface{}) string {
	switch x := v.(type) {
	case string:
		return x
	case float64:
		switch {
		case x == 0:
			return "0"
		case absf(x) >= 1000:
			return strconv.FormatFloat(x, 'f', 0, 64)
		case absf(x) >= 10:
			return strconv.FormatFloat(x, 'f', 1, 64)
		case absf(x) >= 0.01:
			return strconv.FormatFloat(x, 'f', 3, 64)
		default:
			return strconv.FormatFloat(x, 'g', 3, 64)
		}
	case int:
		return strconv.Itoa(x)
	case uint64:
		return strconv.FormatUint(x, 10)
	default:
		return fmt.Sprint(v)
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Render writes an aligned ASCII table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderCSV writes the table as CSV (headers + rows, no notes).
func (t *Table) RenderCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString(strings.Join(t.Headers, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Figure is a rendered experiment figure: an x column plus one column per
// series, with summary statistics in the notes.
type Figure struct {
	ID      string
	Title   string
	XLabel  string
	Columns []string // series names, excluding x
	X       []float64
	Series  [][]float64 // Series[i] parallel to X, one per column; NaN = no point
	Notes   []string
}

// Present returns series i without its absent (NaN) points.
func (f *Figure) Present(i int) []float64 {
	var out []float64
	for _, y := range f.Series[i] {
		if !math.IsNaN(y) {
			out = append(out, y)
		}
	}
	return out
}

// Mean returns the mean of series i over its present points, NaN when
// it has none.
func (f *Figure) Mean(i int) float64 {
	s := f.Present(i)
	if len(s) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, y := range s {
		sum += y
	}
	return sum / float64(len(s))
}

// AddPoint appends one x value with its series values.
func (f *Figure) AddPoint(x float64, ys ...float64) error {
	if len(ys) != len(f.Columns) {
		return fmt.Errorf("harness: figure %s: %d values for %d columns", f.ID, len(ys), len(f.Columns))
	}
	f.X = append(f.X, x)
	for len(f.Series) < len(f.Columns) {
		f.Series = append(f.Series, nil)
	}
	for i, y := range ys {
		f.Series[i] = append(f.Series[i], y)
	}
	return nil
}

// RenderCSV writes the figure data as CSV.
func (f *Figure) RenderCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString(f.XLabel)
	for _, c := range f.Columns {
		b.WriteByte(',')
		b.WriteString(c)
	}
	b.WriteByte('\n')
	for i, x := range f.X {
		b.WriteString(strconv.FormatFloat(x, 'g', 6, 64))
		for _, s := range f.Series {
			b.WriteByte(',')
			if i < len(s) && !math.IsNaN(s[i]) {
				b.WriteString(strconv.FormatFloat(s[i], 'g', 6, 64))
			}
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Render writes a compact ASCII view: per-series sparkline plus summary
// stats, enough to see the shape without a plotting stack.
func (f *Figure) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (x: %s, %d points)\n", f.ID, f.Title, f.XLabel, len(f.X))
	for i, name := range f.Columns {
		if i >= len(f.Series) {
			continue
		}
		s := f.Present(i)
		if len(s) == 0 {
			continue
		}
		min, max := s[0], s[0]
		for _, v := range s {
			min, max = math.Min(min, v), math.Max(max, v)
		}
		fmt.Fprintf(&b, "  %-24s %s  min=%s mean=%s max=%s\n",
			name, sparkline(s, 48), formatCell(min), formatCell(f.Mean(i)), formatCell(max))
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline downsamples values into width buckets of block characters.
func sparkline(vals []float64, width int) string {
	if len(vals) == 0 {
		return ""
	}
	if width > len(vals) {
		width = len(vals)
	}
	min, max := vals[0], vals[0]
	for _, v := range vals {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	out := make([]rune, width)
	for i := 0; i < width; i++ {
		lo := i * len(vals) / width
		hi := (i + 1) * len(vals) / width
		if hi <= lo {
			hi = lo + 1
		}
		s := 0.0
		for _, v := range vals[lo:hi] {
			s += v
		}
		mean := s / float64(hi-lo)
		idx := 0
		if max > min {
			idx = int((mean - min) / (max - min) * float64(len(sparkRunes)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkRunes) {
			idx = len(sparkRunes) - 1
		}
		out[i] = sparkRunes[idx]
	}
	return string(out)
}
