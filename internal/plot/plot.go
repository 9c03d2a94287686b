// Package plot renders the experiment outputs as CSV (for external
// tooling), ASCII (for terminals and text reports), and standalone SVG
// (for figure files), using only the standard library. Fidelity to the
// paper is about curve shape, not pixels, so the renderers are simple line
// and scatter charts with linear axes.
package plot

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// ErrBadPlot reports invalid plot construction.
var ErrBadPlot = errors.New("plot: bad plot")

// Series is one named curve or point cloud.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Chart is a set of series with axis labels.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// Scatter renders points instead of joined lines.
	Scatter bool
	// YMax clips the y axis when positive (the paper clips Fig. 5 at 25).
	YMax float64
	// XMax clips the x axis when positive.
	XMax float64
}

// validate checks series consistency.
func (c *Chart) validate() error {
	if len(c.Series) == 0 {
		return fmt.Errorf("%w: no series", ErrBadPlot)
	}
	for _, s := range c.Series {
		if len(s.X) != len(s.Y) {
			return fmt.Errorf("%w: series %q has %d xs vs %d ys", ErrBadPlot, s.Name, len(s.X), len(s.Y))
		}
		for i := range s.X {
			if math.IsNaN(s.X[i]) || math.IsNaN(s.Y[i]) || math.IsInf(s.X[i], 0) || math.IsInf(s.Y[i], 0) {
				return fmt.Errorf("%w: series %q point %d not finite", ErrBadPlot, s.Name, i)
			}
		}
	}
	return nil
}

// bounds returns the data bounds after clipping.
func (c *Chart) bounds() (xmin, xmax, ymin, ymax float64) {
	xmin, ymin = math.Inf(1), math.Inf(1)
	xmax, ymax = math.Inf(-1), math.Inf(-1)
	for _, s := range c.Series {
		for i := range s.X {
			x, y := s.X[i], s.Y[i]
			if c.XMax > 0 && x > c.XMax {
				continue
			}
			if c.YMax > 0 && y > c.YMax {
				y = c.YMax
			}
			xmin, xmax = math.Min(xmin, x), math.Max(xmax, x)
			ymin, ymax = math.Min(ymin, y), math.Max(ymax, y)
		}
	}
	if math.IsInf(xmin, 1) { // everything clipped away
		xmin, xmax, ymin, ymax = 0, 1, 0, 1
	}
	if xmin == xmax {
		xmax = xmin + 1
	}
	if ymin == ymax {
		ymax = ymin + 1
	}
	if ymin > 0 {
		ymin = 0 // access-time plots read better anchored at zero
	}
	return xmin, xmax, ymin, ymax
}

// CSV renders the chart as "series,x,y" rows with a header.
func CSV(c *Chart) (string, error) {
	if err := c.validate(); err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("series,x,y\n")
	for _, s := range c.Series {
		for i := range s.X {
			fmt.Fprintf(&b, "%s,%g,%g\n", csvEscape(s.Name), s.X[i], s.Y[i])
		}
	}
	return b.String(), nil
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// asciiMarks assigns one rune per series.
var asciiMarks = []rune{'*', '+', 'o', 'x', '#', '@', '%', '&'}

// ASCII renders the chart as a width×height character grid with axes and a
// legend, suitable for terminals and text reports.
func ASCII(c *Chart, width, height int) (string, error) {
	if err := c.validate(); err != nil {
		return "", err
	}
	if width < 20 || height < 5 {
		return "", fmt.Errorf("%w: grid %dx%d too small", ErrBadPlot, width, height)
	}
	xmin, xmax, ymin, ymax := c.bounds()
	grid := make([][]rune, height)
	for i := range grid {
		grid[i] = make([]rune, width)
		for j := range grid[i] {
			grid[i][j] = ' '
		}
	}
	put := func(x, y float64, mark rune) {
		if c.XMax > 0 && x > c.XMax {
			return
		}
		if c.YMax > 0 && y > c.YMax {
			y = c.YMax
		}
		col := int(math.Round((x - xmin) / (xmax - xmin) * float64(width-1)))
		row := int(math.Round((y - ymin) / (ymax - ymin) * float64(height-1)))
		row = height - 1 - row
		if col >= 0 && col < width && row >= 0 && row < height {
			grid[row][col] = mark
		}
	}
	for si, s := range c.Series {
		mark := asciiMarks[si%len(asciiMarks)]
		if c.Scatter || len(s.X) == 1 {
			for i := range s.X {
				put(s.X[i], s.Y[i], mark)
			}
			continue
		}
		// Join consecutive points with linear interpolation so sparse
		// series still read as curves.
		idx := sortedOrder(s.X)
		for k := 0; k+1 < len(idx); k++ {
			x0, y0 := s.X[idx[k]], s.Y[idx[k]]
			x1, y1 := s.X[idx[k+1]], s.Y[idx[k+1]]
			steps := int(math.Abs(x1-x0)/(xmax-xmin)*float64(width)) + 1
			for t := 0; t <= steps; t++ {
				f := float64(t) / float64(steps)
				put(x0+f*(x1-x0), y0+f*(y1-y0), mark)
			}
		}
	}
	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	for i, row := range grid {
		label := "        "
		switch i {
		case 0:
			label = fmt.Sprintf("%7.4g ", ymax)
		case height - 1:
			label = fmt.Sprintf("%7.4g ", ymin)
		}
		b.WriteString(label)
		b.WriteString("|")
		b.WriteString(string(row))
		b.WriteString("\n")
	}
	b.WriteString("        +")
	b.WriteString(strings.Repeat("-", width))
	b.WriteString("\n")
	fmt.Fprintf(&b, "        %-10.4g%*s%10.4g  (%s)\n", xmin, width-18, "", xmax, c.XLabel)
	for si, s := range c.Series {
		fmt.Fprintf(&b, "        %c %s\n", asciiMarks[si%len(asciiMarks)], s.Name)
	}
	return b.String(), nil
}

func sortedOrder(xs []float64) []int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	return idx
}

// svgPalette holds distinguishable stroke colors.
var svgPalette = []string{"#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f"}

// SVG renders the chart as a standalone SVG document.
func SVG(c *Chart, width, height int) (string, error) {
	if err := c.validate(); err != nil {
		return "", err
	}
	if width < 100 || height < 80 {
		return "", fmt.Errorf("%w: canvas %dx%d too small", ErrBadPlot, width, height)
	}
	const margin = 50
	plotW := float64(width - 2*margin)
	plotH := float64(height - 2*margin)
	xmin, xmax, ymin, ymax := c.bounds()
	px := func(x float64) float64 { return margin + (x-xmin)/(xmax-xmin)*plotW }
	py := func(y float64) float64 { return float64(height) - margin - (y-ymin)/(ymax-ymin)*plotH }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n", width, height, width, height)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	if c.Title != "" {
		fmt.Fprintf(&b, `<text x="%d" y="20" text-anchor="middle" font-family="sans-serif" font-size="14">%s</text>`+"\n", width/2, xmlEscape(c.Title))
	}
	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n", margin, height-margin, width-margin, height-margin)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n", margin, margin, margin, height-margin)
	// Axis labels and bounds.
	fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="middle" font-family="sans-serif" font-size="11">%s</text>`+"\n", width/2, height-10, xmlEscape(c.XLabel))
	fmt.Fprintf(&b, `<text x="14" y="%d" text-anchor="middle" font-family="sans-serif" font-size="11" transform="rotate(-90 14 %d)">%s</text>`+"\n", height/2, height/2, xmlEscape(c.YLabel))
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="10">%.4g</text>`+"\n", margin-4, height-margin+14, xmin)
	fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="end" font-family="sans-serif" font-size="10">%.4g</text>`+"\n", width-margin, height-margin+14, xmax)
	fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="end" font-family="sans-serif" font-size="10">%.4g</text>`+"\n", margin-6, height-margin, ymin)
	fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="end" font-family="sans-serif" font-size="10">%.4g</text>`+"\n", margin-6, margin+4, ymax)

	clip := func(y float64) float64 {
		if c.YMax > 0 && y > c.YMax {
			return c.YMax
		}
		return y
	}
	for si, s := range c.Series {
		color := svgPalette[si%len(svgPalette)]
		if c.Scatter {
			for i := range s.X {
				if c.XMax > 0 && s.X[i] > c.XMax {
					continue
				}
				fmt.Fprintf(&b, `<circle cx="%.2f" cy="%.2f" r="2" fill="%s" fill-opacity="0.7"/>`+"\n", px(s.X[i]), py(clip(s.Y[i])), color)
			}
		} else {
			idx := sortedOrder(s.X)
			var pts []string
			for _, i := range idx {
				if c.XMax > 0 && s.X[i] > c.XMax {
					continue
				}
				pts = append(pts, fmt.Sprintf("%.2f,%.2f", px(s.X[i]), py(clip(s.Y[i]))))
			}
			if len(pts) > 0 {
				fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"/>`+"\n", strings.Join(pts, " "), color)
			}
		}
		// Legend entry.
		ly := margin + 16*si
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="10" height="10" fill="%s"/>`+"\n", width-margin-110, ly, color)
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="10">%s</text>`+"\n", width-margin-96, ly+9, xmlEscape(s.Name))
	}
	b.WriteString("</svg>\n")
	return b.String(), nil
}

func xmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
