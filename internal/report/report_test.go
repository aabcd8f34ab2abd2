package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table X. Demo", "name", "value")
	tb.AddRow("alpha", "+1.0 %")
	tb.AddRow("a-much-longer-name", "-2.5 %")
	tb.AddRow("short") // padded
	out := tb.String()
	if !strings.HasPrefix(out, "Table X. Demo\n") {
		t.Errorf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 { // title, header, rule, 3 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// All rows align: the value column starts at the same offset.
	idx := strings.Index(lines[1], "value")
	for _, ln := range lines[3:5] {
		if len(ln) < idx {
			continue
		}
		if strings.TrimRight(ln[:idx], " ") == ln[:idx] && !strings.HasSuffix(ln[:idx], " ") {
			t.Errorf("column misaligned in %q", ln)
		}
	}
	if len(tb.rows) != 3 {
		t.Errorf("%d rows, want 3", len(tb.rows))
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow("x")
	if strings.HasPrefix(tb.String(), "\n") {
		t.Error("empty title produced a leading blank line")
	}
}

func TestPctFormats(t *testing.T) {
	if got := Pct(0.038); got != "+3.8 %" {
		t.Errorf("Pct = %q", got)
	}
	if got := Pct(-0.16); got != "-16.0 %" {
		t.Errorf("Pct = %q", got)
	}
	if got := Pct2(0.0003); got != "+0.03 %" {
		t.Errorf("Pct2 = %q", got)
	}
}

func TestSeriesCSV(t *testing.T) {
	s := Series{Name: "fig", XLabel: "x", YLabel: "y"}
	s.Add(1, 10)
	s.Add(2, 20)
	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "# fig\nx,y\n1,10\n2,20\n"
	if b.String() != want {
		t.Errorf("CSV = %q, want %q", b.String(), want)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	bad := Series{Name: "bad", X: []float64{1}, Y: nil}
	if err := bad.WriteCSV(&b); err == nil {
		t.Error("mismatched series accepted")
	}
}

func TestSparkline(t *testing.T) {
	s := Series{}
	if s.Sparkline() != "" {
		t.Error("empty sparkline not empty")
	}
	s.Add(0, 0)
	s.Add(1, 1)
	s.Add(2, 0.5)
	sp := []rune(s.Sparkline())
	if len(sp) != 3 {
		t.Fatalf("sparkline %q", string(sp))
	}
	if sp[0] == sp[1] {
		t.Error("min and max rendered identically")
	}
	// Flat series must not divide by zero.
	flat := Series{Y: []float64{5, 5, 5}, X: []float64{0, 1, 2}}
	if got := flat.Sparkline(); len([]rune(got)) != 3 {
		t.Errorf("flat sparkline %q", got)
	}
}

func TestHistogram(t *testing.T) {
	var b strings.Builder
	err := Histogram(&b, "gaps", []string{"10^0", "10^1", "10^2"}, []uint64{0, 100, 1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[2], strings.Repeat("█", 10)) {
		t.Errorf("max bucket not full width: %q", lines[2])
	}
	if strings.Contains(lines[1], "█") {
		t.Errorf("zero bucket has a bar: %q", lines[1])
	}
	if !strings.Contains(lines[3], "█") {
		t.Errorf("small nonzero bucket invisible: %q", lines[3])
	}
	if err := Histogram(&b, "", []string{"a"}, []uint64{1, 2}, 10); err == nil {
		t.Error("mismatched lengths accepted")
	}
	// Zero width defaults; all-zero counts render without division by zero.
	var b2 strings.Builder
	if err := Histogram(&b2, "", []string{"a"}, []uint64{0}, 0); err != nil {
		t.Fatal(err)
	}
}
