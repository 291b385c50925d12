package plot

import (
	"strings"
	"testing"
)

func TestChartRenderBasics(t *testing.T) {
	c := Chart{Title: "payoff vs CW", XLabel: "CW", YLabel: "U/C", Width: 40, Height: 10}
	c.Add("n=5", []float64{1, 2, 3, 4}, []float64{0, 1, 4, 9})
	out, err := c.Render()
	if err != nil {
		t.Fatalf("Render: %v", err)
	}
	for _, want := range []string{"payoff vs CW", "U/C", "CW", "n=5", "*"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 12 {
		t.Errorf("suspiciously short chart (%d lines)", len(lines))
	}
}

func TestChartMultipleSeriesMarkers(t *testing.T) {
	c := Chart{Width: 30, Height: 8}
	c.Add("a", []float64{0, 1}, []float64{0, 1})
	c.Add("b", []float64{0, 1}, []float64{1, 0})
	out, err := c.Render()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Errorf("distinct markers missing:\n%s", out)
	}
}

func TestChartErrors(t *testing.T) {
	empty := Chart{}
	if _, err := empty.Render(); err == nil {
		t.Error("empty chart rendered")
	}
	mismatch := Chart{Series: []Series{{Name: "bad", X: []float64{1}, Y: []float64{1, 2}}}}
	if _, err := mismatch.Render(); err == nil {
		t.Error("mismatched series rendered")
	}
	hollow := Chart{Series: []Series{{Name: "hollow"}}}
	if _, err := hollow.Render(); err == nil {
		t.Error("zero-length series rendered")
	}
	logBad := Chart{LogX: true, Series: []Series{{Name: "neg", X: []float64{0}, Y: []float64{1}}}}
	if _, err := logBad.Render(); err == nil {
		t.Error("non-positive x rendered on log axis")
	}
}

func TestChartConstantSeries(t *testing.T) {
	// Degenerate ranges must not divide by zero.
	c := Chart{Width: 20, Height: 5}
	c.Add("flat", []float64{2, 2, 2}, []float64{7, 7, 7})
	if _, err := c.Render(); err != nil {
		t.Fatalf("constant series failed: %v", err)
	}
}

func TestChartLogX(t *testing.T) {
	c := Chart{LogX: true, Width: 40, Height: 8}
	c.Add("sweep", []float64{1, 10, 100, 1000}, []float64{1, 2, 3, 4})
	out, err := c.Render()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "1000") {
		t.Errorf("log-x tick missing:\n%s", out)
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{Title: "Table II", Headers: []string{"n", "Wc*", "sim"}}
	if err := tb.AddRow("5", "76", "75.6"); err != nil {
		t.Fatal(err)
	}
	tb.MustAddRow("20", "336", "337.4")
	out := tb.Render()
	for _, want := range []string{"Table II", "Wc*", "75.6", "337.4", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	if len(tb.rows) != 2 {
		t.Errorf("%d rows, want 2", len(tb.rows))
	}
	// Columns must align: header row and data rows share prefixes widths.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
}

func TestTableArityChecks(t *testing.T) {
	tb := Table{Headers: []string{"a", "b"}}
	if err := tb.AddRow("only-one"); err == nil {
		t.Error("short row accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAddRow did not panic")
		}
	}()
	tb.MustAddRow("x", "y", "z")
}

func TestWriteCSV(t *testing.T) {
	var b strings.Builder
	err := WriteCSV(&b, []string{"w", "u"}, []float64{1, 2, 3}, []float64{0.5, 0.25, 0.125})
	if err != nil {
		t.Fatal(err)
	}
	want := "w,u\n1,0.5\n2,0.25\n3,0.125\n"
	if b.String() != want {
		t.Fatalf("csv = %q, want %q", b.String(), want)
	}
}

func TestWriteCSVErrors(t *testing.T) {
	var b strings.Builder
	if err := WriteCSV(&b, []string{"a"}, []float64{1}, []float64{2}); err == nil {
		t.Error("header/column mismatch accepted")
	}
	if err := WriteCSV(&b, nil); err == nil {
		t.Error("empty csv accepted")
	}
	if err := WriteCSV(&b, []string{"a", "b"}, []float64{1, 2}, []float64{3}); err == nil {
		t.Error("ragged columns accepted")
	}
}

// Rendering must be deterministic: identical inputs give byte-identical
// output (the results/ artifacts are diffable across runs).
func TestRenderDeterministic(t *testing.T) {
	build := func() string {
		c := Chart{Title: "t", Width: 50, Height: 12, LogX: true}
		c.Add("a", []float64{1, 10, 100}, []float64{0.5, 1.5, 1.0})
		c.Add("b", []float64{2, 20, 200}, []float64{1.0, 0.25, 0.75})
		out, err := c.Render()
		if err != nil {
			t.Fatal(err)
		}
		tb := Table{Title: "tt", Headers: []string{"x", "y"}}
		tb.MustAddRow("1", "2")
		return out + tb.Render()
	}
	if build() != build() {
		t.Fatal("rendering is not deterministic")
	}
}

func TestChartSinglePoint(t *testing.T) {
	c := Chart{Width: 10, Height: 4}
	c.Add("dot", []float64{5}, []float64{7})
	if _, err := c.Render(); err != nil {
		t.Fatalf("single-point series failed: %v", err)
	}
}

func TestTableEmptyRender(t *testing.T) {
	tb := Table{Headers: []string{"only", "headers"}}
	out := tb.Render()
	if !strings.Contains(out, "only") {
		t.Fatalf("headers missing: %q", out)
	}
	if len(tb.rows) != 0 {
		t.Fatal("phantom rows")
	}
}
