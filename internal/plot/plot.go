// Package plot renders small ASCII charts for the experiment harness:
// error-bar columns (Figures 5, 6, 9, 10 of the paper), time series
// (Figures 2, 8), scatter strips (Figure 1) and sparklines. The goal is
// that `cmd/experiments` output *looks like* the paper's figures, not
// just its tables.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// axis computes a rounded [lo, hi] range covering the data with a small
// margin.
func axis(lo, hi float64) (float64, float64) {
	if math.IsNaN(lo) || math.IsNaN(hi) {
		return 0, 1
	}
	if lo > hi {
		lo, hi = hi, lo
	}
	span := hi - lo
	if span <= 0 {
		span = math.Abs(hi)
		if span == 0 {
			span = 1
		}
		return lo - span/10, hi + span/10
	}
	return lo - span*0.08, hi + span*0.08
}

func clampRow(rows int, f float64) int {
	r := int(f)
	if r < 0 {
		return 0
	}
	if r >= rows {
		return rows - 1
	}
	return r
}

// ErrorBarPoint is one column of an error-bar chart: a label, the mean,
// a symmetric deviation, and the observed extremes.
type ErrorBarPoint struct {
	Label    string
	Mean     float64
	Dev      float64 // +/- one sigma
	Min, Max float64
}

// ErrorBars renders columns with mean (o), +/- sigma (|) and min/max (-)
// markers on a vertical value axis — the visual idiom of the paper's
// Figures 5 and 6.
func ErrorBars(title, yLabel string, pts []ErrorBarPoint, rows int) string {
	if len(pts) == 0 || rows < 5 {
		return ""
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range pts {
		lo = math.Min(lo, math.Min(p.Min, p.Mean-p.Dev))
		hi = math.Max(hi, math.Max(p.Max, p.Mean+p.Dev))
	}
	lo, hi = axis(lo, hi)
	scale := float64(rows-1) / (hi - lo)
	colW := 0
	for _, p := range pts {
		if len(p.Label) > colW {
			colW = len(p.Label)
		}
	}
	colW += 2

	grid := make([][]byte, rows)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", colW*len(pts)))
	}
	set := func(row, col int, ch byte) {
		r := rows - 1 - row
		if r >= 0 && r < rows && col >= 0 && col < colW*len(pts) {
			grid[r][col] = ch
		}
	}
	for i, p := range pts {
		c := i*colW + colW/2
		minR := clampRow(rows, (p.Min-lo)*scale)
		maxR := clampRow(rows, (p.Max-lo)*scale)
		loR := clampRow(rows, (p.Mean-p.Dev-lo)*scale)
		hiR := clampRow(rows, (p.Mean+p.Dev-lo)*scale)
		meanR := clampRow(rows, (p.Mean-lo)*scale)
		for r := loR; r <= hiR; r++ {
			set(r, c, '|')
		}
		set(minR, c, '-')
		set(maxR, c, '-')
		set(meanR, c, 'o')
	}

	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	for i, line := range grid {
		val := hi - (hi-lo)*float64(i)/float64(rows-1)
		fmt.Fprintf(&b, "%10.0f %s %s\n", val, "|", strings.TrimRight(string(line), " "))
	}
	b.WriteString(strings.Repeat(" ", 11) + "+" + strings.Repeat("-", colW*len(pts)) + "\n")
	b.WriteString(strings.Repeat(" ", 12))
	for _, p := range pts {
		fmt.Fprintf(&b, "%-*s", colW, centered(p.Label, colW))
	}
	b.WriteString("\n")
	if yLabel != "" {
		fmt.Fprintf(&b, "%12s(y: %s; o mean, | +/-sigma, - min/max)\n", "", yLabel)
	}
	return b.String()
}

func centered(s string, w int) string {
	if len(s) >= w {
		return s[:w]
	}
	left := (w - len(s)) / 2
	return strings.Repeat(" ", left) + s
}

// Series renders a y-over-x line chart from evenly spaced samples —
// Figure 2/8 style time series.
func Series(title, yLabel string, ys []float64, rows, cols int) string {
	if len(ys) == 0 || rows < 4 || cols < 8 {
		return ""
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, y := range ys {
		lo = math.Min(lo, y)
		hi = math.Max(hi, y)
	}
	lo, hi = axis(lo, hi)
	grid := make([][]byte, rows)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", cols))
	}
	for x := 0; x < cols; x++ {
		var y float64
		if len(ys) == 1 {
			y = ys[0]
		} else {
			// Linear interpolation across the series.
			pos := float64(x) / float64(cols-1) * float64(len(ys)-1)
			i0 := int(pos)
			if i0 >= len(ys)-1 {
				y = ys[len(ys)-1]
			} else {
				frac := pos - float64(i0)
				y = ys[i0]*(1-frac) + ys[i0+1]*frac
			}
		}
		r := clampRow(rows, (y-lo)/(hi-lo)*float64(rows-1))
		grid[rows-1-r][x] = '*'
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	for i, line := range grid {
		val := hi - (hi-lo)*float64(i)/float64(rows-1)
		fmt.Fprintf(&b, "%10.0f | %s\n", val, strings.TrimRight(string(line), " "))
	}
	b.WriteString(strings.Repeat(" ", 11) + "+" + strings.Repeat("-", cols) + "\n")
	if yLabel != "" {
		fmt.Fprintf(&b, "%12s(y: %s, x: progress through the run)\n", "", yLabel)
	}
	return b.String()
}

// Scatter renders (x, y) category points as a strip per category — the
// idiom of Figure 1 (scheduling events over time for two runs).
type ScatterPoint struct {
	X float64
	Y int // category row (e.g. thread id)
}

// Scatter renders points into a cols-wide strip with one text row per
// distinct Y bucket (Y values are bucketed if there are more than rows).
func Scatter(title string, pts []ScatterPoint, rows, cols int, marker byte) string {
	if len(pts) == 0 || rows < 2 || cols < 8 {
		return ""
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := pts[0].Y, pts[0].Y
	for _, p := range pts {
		minX = math.Min(minX, p.X)
		maxX = math.Max(maxX, p.X)
		if p.Y < minY {
			minY = p.Y
		}
		if p.Y > maxY {
			maxY = p.Y
		}
	}
	if maxX == minX {
		maxX = minX + 1
	}
	ySpan := maxY - minY + 1
	grid := make([][]byte, rows)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", cols))
	}
	for _, p := range pts {
		col := int((p.X - minX) / (maxX - minX) * float64(cols-1))
		row := 0
		if ySpan > 1 {
			row = (p.Y - minY) * (rows - 1) / (ySpan - 1)
		}
		if col >= 0 && col < cols && row >= 0 && row < rows {
			grid[rows-1-row][col] = marker
		}
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	for i, line := range grid {
		yVal := maxY - (maxY-minY)*i/max(rows-1, 1)
		fmt.Fprintf(&b, "%6d | %s\n", yVal, strings.TrimRight(string(line), " "))
	}
	fmt.Fprintf(&b, "%7s+%s\n", "", strings.Repeat("-", cols))
	fmt.Fprintf(&b, "%8s%.0f .. %.0f\n", "", minX, maxX)
	return b.String()
}

// sparkRamp is the 8-level block ramp used by Sparkline.
var sparkRamp = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders ys as a one-line height-coded series — the compact
// idiom for per-interval metric traces (IPC, miss rate) of a machine's
// interval series. width > 0 resamples the series to that many cells
// (linear interpolation); width <= 0 keeps one cell per sample.
func Sparkline(ys []float64, width int) string {
	if len(ys) == 0 {
		return ""
	}
	if width > 0 && width != len(ys) {
		ys = resample(ys, width)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, y := range ys {
		lo = math.Min(lo, y)
		hi = math.Max(hi, y)
	}
	span := hi - lo
	var b strings.Builder
	for _, y := range ys {
		i := 0
		if span > 0 {
			i = int((y - lo) / span * float64(len(sparkRamp)-1))
		}
		if i < 0 {
			i = 0
		}
		if i >= len(sparkRamp) {
			i = len(sparkRamp) - 1
		}
		b.WriteRune(sparkRamp[i])
	}
	return b.String()
}

// SparklineLabeled renders a sparkline with its name and min/max range,
// e.g. "ipc      ▁▂▅█▃  [0.12 .. 0.87]".
func SparklineLabeled(label string, ys []float64, width int) string {
	if len(ys) == 0 {
		return ""
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, y := range ys {
		lo = math.Min(lo, y)
		hi = math.Max(hi, y)
	}
	return fmt.Sprintf("%-16s %s  [%.4g .. %.4g]", label, Sparkline(ys, width), lo, hi)
}

// resample linearly interpolates ys onto n evenly spaced points.
func resample(ys []float64, n int) []float64 {
	out := make([]float64, n)
	if len(ys) == 1 {
		for i := range out {
			out[i] = ys[0]
		}
		return out
	}
	for i := 0; i < n; i++ {
		pos := float64(i) / float64(max(n-1, 1)) * float64(len(ys)-1)
		i0 := int(pos)
		if i0 >= len(ys)-1 {
			out[i] = ys[len(ys)-1]
			continue
		}
		frac := pos - float64(i0)
		out[i] = ys[i0]*(1-frac) + ys[i0+1]*frac
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
