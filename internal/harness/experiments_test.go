package harness

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

// TestAllTablesGenerate runs every table experiment end-to-end on a
// non-default seed and sanity-checks the rendered output. This is the
// regression net for the full evaluation pipeline (the benches in
// bench_test.go time the same paths).
func TestAllTablesGenerate(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation run")
	}
	// One shared parallel runner: exercises fan-out and the cross-table
	// run cache exactly the way cmd/evolve-bench does.
	r := NewRunner(0)
	t1, results, err := Table1(r, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Rows) != 18 { // 3 mixes × (5 policies + oracle)
		t.Errorf("table1 rows = %d, want 18", len(t1.Rows))
	}
	if len(results) != 18 {
		t.Errorf("table1 results = %d", len(results))
	}
	t2, err := Table2(r, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Rows) != 8 { // 4 archetypes × 2 policies
		t.Errorf("table2 rows = %d, want 8", len(t2.Rows))
	}
	t3, err := Table3(r, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Rows) != 6 { // 2 scorings × 3 queue policies
		t.Errorf("table3 rows = %d, want 6", len(t3.Rows))
	}
	t5, err := Table5(r, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(t5.Rows) != 7 { // 5 policies + 2 consolidation rows
		t.Errorf("table5 rows = %d, want 7", len(t5.Rows))
	}
	for _, tab := range []*Table{t1, t2, t3, t5} {
		var buf bytes.Buffer
		if err := tab.Render(&buf); err != nil {
			t.Fatalf("%s render: %v", tab.ID, err)
		}
		if !strings.Contains(buf.String(), tab.ID) {
			t.Errorf("%s render missing ID", tab.ID)
		}
		buf.Reset()
		if err := tab.RenderCSV(&buf); err != nil {
			t.Fatalf("%s csv: %v", tab.ID, err)
		}
	}
}

// TestAllFiguresGenerate runs every figure experiment and checks the
// series are populated and renderable.
func TestAllFiguresGenerate(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation run")
	}
	r := NewRunner(0)
	figs := []struct {
		name string
		run  func() (*Figure, error)
	}{
		{"figure1", func() (*Figure, error) { return Figure1(r, 3) }},
		{"figure2", func() (*Figure, error) { return Figure2(r, 3) }},
		{"figure3", func() (*Figure, error) { f, _, err := Figure3(r, 3); return f, err }},
		{"figure4", func() (*Figure, error) { return Figure4(3) }},
		{"figure5", func() (*Figure, error) { return Figure5(r, 3) }},
		{"figure7", func() (*Figure, error) { return Figure7(r, 3) }},
		{"figure8", func() (*Figure, error) { return Figure8(r, 3) }},
	}
	for _, fc := range figs {
		f, err := fc.run()
		if err != nil {
			t.Fatalf("%s: %v", fc.name, err)
		}
		if len(f.X) == 0 || len(f.Series) != len(f.Columns) {
			t.Fatalf("%s: empty or mismatched series", fc.name)
		}
		var buf bytes.Buffer
		if err := f.Render(&buf); err != nil {
			t.Fatalf("%s render: %v", fc.name, err)
		}
		buf.Reset()
		if err := f.RenderCSV(&buf); err != nil {
			t.Fatalf("%s csv: %v", fc.name, err)
		}
		lines := strings.Count(buf.String(), "\n")
		if lines != len(f.X)+1 {
			t.Errorf("%s csv lines = %d, want %d", fc.name, lines, len(f.X)+1)
		}
	}
}

// TestFigure7HeadlinesInDomain: Figure 7's two series sit at disjoint x
// positions, so each row leaves one column absent. Absent points must
// stay out of the headline means (evolve-bench reports Figure.Mean per
// column): every headline, and every present point, must lie in its
// column's domain — percentages in [0,100], everything else >= 0.
func TestFigure7HeadlinesInDomain(t *testing.T) {
	if testing.Short() {
		t.Skip("full run")
	}
	f, err := Figure7(nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	inDomain := func(col string, v float64) bool {
		if strings.Contains(col, "%") {
			return v >= 0 && v <= 100
		}
		return v >= 0
	}
	for i, col := range f.Columns {
		m := f.Mean(i)
		if math.IsNaN(m) {
			t.Errorf("%s: no present points", col)
			continue
		}
		if !inDomain(col, m) {
			t.Errorf("headline mean:%s = %v outside its domain", col, m)
		}
		for _, y := range f.Present(i) {
			if !inDomain(col, y) {
				t.Errorf("%s: point %v outside its domain", col, y)
			}
		}
	}
	for _, x := range f.X {
		if !inDomain(f.XLabel, x) {
			t.Errorf("%s: x %v outside its domain", f.XLabel, x)
		}
	}
	var csv bytes.Buffer
	if err := f.RenderCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(csv.String(), "NaN") {
		t.Errorf("absent points rendered as NaN instead of empty cells:\n%s", csv.String())
	}
}

// TestFigure3FeedforwardAblation asserts the Figure 3 headline: the full
// controller settles a 3x flash crowd within roughly one control period,
// and removing the feedforward makes it much slower.
func TestFigure3FeedforwardAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("full run")
	}
	_, stats, err := Figure3(nil, 11)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]StepStats{}
	for _, s := range stats {
		byName[s.Policy] = s
	}
	ev, ok := byName["evolve"]
	if !ok {
		t.Fatal("missing evolve stats")
	}
	if ev.SettleAfter.Seconds() > 60 {
		t.Errorf("evolve settles in %v, want <= 60s", ev.SettleAfter)
	}
	noFF, ok := byName["evolve-no-ff"]
	if !ok {
		t.Fatal("missing ablation stats")
	}
	if noFF.SettleAfter < 4*ev.SettleAfter {
		t.Errorf("feedforward ablation settles in %v vs %v; expected a large gap", noFF.SettleAfter, ev.SettleAfter)
	}
}

// TestTable2MultiResourceShape asserts the novelty claim on a fresh seed:
// the scalar PID collapses on non-CPU bottlenecks.
func TestTable2MultiResourceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full run")
	}
	tab, err := Table2(nil, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Rows come in pairs: evolve-multi then pid-cpu-only, per archetype.
	get := func(archetype, policy string) float64 {
		for _, row := range tab.Rows {
			if row[0] == archetype && row[2] == policy {
				v, err := strconv.ParseFloat(row[3], 64)
				if err != nil {
					t.Fatalf("parse %q: %v", row[3], err)
				}
				return v
			}
		}
		t.Fatalf("row %s/%s not found", archetype, policy)
		return 0
	}
	for _, a := range []string{"gateway", "kvstore"} {
		multi := get(a, "evolve-multi")
		scalar := get(a, "pid-cpu-only")
		if scalar < 10*multi {
			t.Errorf("%s: scalar %v%% vs multi %v%%: expected >= 10x gap", a, scalar, multi)
		}
	}
}
