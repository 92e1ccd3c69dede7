package plot

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestErrorBarsBasic(t *testing.T) {
	pts := []ErrorBarPoint{
		{Label: "1-way", Mean: 100, Dev: 5, Min: 90, Max: 112},
		{Label: "2-way", Mean: 95, Dev: 4, Min: 88, Max: 104},
		{Label: "4-way", Mean: 90, Dev: 3, Min: 85, Max: 96},
	}
	out := ErrorBars("fig", "cycles/txn", pts, 12)
	if out == "" {
		t.Fatal("empty output")
	}
	for _, want := range []string{"fig", "1-way", "4-way", "o", "|", "cycles/txn"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Three mean markers, one per column (exclude the legend line).
	grid := out[:strings.Index(out, "(y:")]
	if got := strings.Count(grid, "o"); got != 3 {
		t.Errorf("expected 3 mean markers, got %d:\n%s", got, out)
	}
}

func TestErrorBarsDegenerate(t *testing.T) {
	if ErrorBars("t", "y", nil, 12) != "" {
		t.Error("no points should render nothing")
	}
	if ErrorBars("t", "y", []ErrorBarPoint{{Label: "x", Mean: 1}}, 2) != "" {
		t.Error("too few rows should render nothing")
	}
	// Identical values must not divide by zero.
	out := ErrorBars("t", "y", []ErrorBarPoint{
		{Label: "a", Mean: 5, Min: 5, Max: 5},
		{Label: "b", Mean: 5, Min: 5, Max: 5},
	}, 8)
	if out == "" || strings.Contains(out, "NaN") {
		t.Fatalf("degenerate range mishandled:\n%s", out)
	}
}

func TestSeriesShape(t *testing.T) {
	ys := make([]float64, 100)
	for i := range ys {
		ys[i] = float64(i % 20)
	}
	out := Series("ts", "CPT", ys, 10, 60)
	if out == "" {
		t.Fatal("empty series")
	}
	if got := strings.Count(out, "*"); got < 50 {
		t.Errorf("series too sparse (%d markers):\n%s", got, out)
	}
	if !strings.Contains(out, "CPT") {
		t.Error("missing axis label")
	}
}

func TestSeriesSingleValue(t *testing.T) {
	out := Series("flat", "", []float64{7}, 6, 20)
	if out == "" || strings.Contains(out, "NaN") {
		t.Fatalf("single value series broken:\n%s", out)
	}
}

func TestSeriesDegenerate(t *testing.T) {
	if Series("", "", nil, 10, 60) != "" {
		t.Error("empty data should render nothing")
	}
	if Series("", "", []float64{1, 2}, 2, 60) != "" {
		t.Error("too few rows should render nothing")
	}
}

func TestScatter(t *testing.T) {
	var pts []ScatterPoint
	for i := 0; i < 50; i++ {
		pts = append(pts, ScatterPoint{X: float64(i * 100), Y: i % 8})
	}
	out := Scatter("sched", pts, 8, 40, 'x')
	if out == "" {
		t.Fatal("empty scatter")
	}
	if !strings.Contains(out, "x") || !strings.Contains(out, "sched") {
		t.Errorf("scatter content wrong:\n%s", out)
	}
}

func TestScatterSingleCategory(t *testing.T) {
	pts := []ScatterPoint{{X: 0, Y: 3}, {X: 10, Y: 3}}
	out := Scatter("one", pts, 4, 20, 'o')
	if out == "" || strings.Contains(out, "NaN") {
		t.Fatalf("single category scatter broken:\n%s", out)
	}
}

// Property: no renderer panics or emits NaN for arbitrary finite input.
func TestRenderersTotal(t *testing.T) {
	if err := quick.Check(func(raw []uint16, rows8, cols8 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		ys := make([]float64, len(raw))
		pts := make([]ScatterPoint, len(raw))
		ebs := make([]ErrorBarPoint, 0, 4)
		for i, v := range raw {
			ys[i] = float64(v)
			pts[i] = ScatterPoint{X: float64(v), Y: int(v % 16)}
		}
		for i := 0; i < len(raw) && i < 4; i++ {
			ebs = append(ebs, ErrorBarPoint{
				Label: "c", Mean: ys[i], Dev: 1, Min: ys[i] - 2, Max: ys[i] + 2,
			})
		}
		rows := 4 + int(rows8%20)
		cols := 8 + int(cols8%60)
		outs := []string{
			Series("s", "y", ys, rows, cols),
			Scatter("sc", pts, rows, cols, '*'),
			ErrorBars("e", "y", ebs, rows+2),
		}
		for _, o := range outs {
			if strings.Contains(o, "NaN") {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
