package stats

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestGeoMeanAndMean(t *testing.T) {
	if g := GeoMean([]float64{1, 100}); math.Abs(g-10) > 1e-9 {
		t.Fatalf("geomean %v", g)
	}
	// Non-positive values are ignored, not zeroing.
	if g := GeoMean([]float64{0, 4, 9, -1}); math.Abs(g-6) > 1e-9 {
		t.Fatalf("geomean with zeros %v", g)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("empty geomean")
	}
	if Mean([]float64{1, 2, 3}) != 2 || Mean(nil) != 0 {
		t.Fatal("mean wrong")
	}
}

func TestTableMarkdownAndCSV(t *testing.T) {
	tab := NewTable("demo", "name", "value")
	tab.AddRow("x", 1.5)
	tab.AddRow("y", uint64(7))
	if tab.NumRows() != 2 {
		t.Fatal("row count")
	}
	var md bytes.Buffer
	if err := tab.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	out := md.String()
	for _, want := range []string{"### demo", "| name", "| x", "1.500", "| y", "| 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q in:\n%s", want, out)
		}
	}
	var csv bytes.Buffer
	if err := tab.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 || lines[0] != "name,value" {
		t.Fatalf("csv: %v", lines)
	}
}

func TestTableSort(t *testing.T) {
	tab := NewTable("", "k")
	tab.AddRow("b")
	tab.AddRow("a")
	tab.SortByColumn(0)
	var csv bytes.Buffer
	_ = tab.WriteCSV(&csv)
	if !strings.HasPrefix(strings.Split(csv.String(), "\n")[1], "a") {
		t.Fatal("sort failed")
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1.5:     "1.500",
		0.25:    "0.2500",
		1e-9:    "1.000e-09",
		3.7e4:   "37000.000",
		2.66e-8: "2.660e-08",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[float64]string{
		64:         "64B",
		4096:       "4.00KiB",
		16 << 30:   "16.00GiB",
		8 << 40:    "8.00TiB",
		1.5 * 1024: "1.50KiB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%v) = %q, want %q", in, got, want)
		}
	}
}
