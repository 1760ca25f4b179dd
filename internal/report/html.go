package report

import (
	"fmt"
	"html"
	"io"
	"math"
	"strings"
)

// The HTML renderer produces ONE file with everything inlined — CSS in
// a <style> block, charts as inline SVG, no <script src>, <link>, <img>
// or fetch of any kind — so the artifact opens anywhere, forever. CI
// pins this property by grepping the output for external references.

// HTMLTable is one table block of a report page.
type HTMLTable struct {
	Caption string
	Header  []string
	Rows    [][]string
}

// HTMLLinks is a table block whose first column renders as a link:
// Hrefs[i] is the target of Rows[i]'s first cell. It backs the
// -spec-dir combined index page, where each row links the per-spec
// report artifact sitting next to the index file.
type HTMLLinks struct {
	Caption string
	Header  []string
	Rows    [][]string
	Hrefs   []string
}

// HTMLChart is one log-scale line chart of a positive series — built
// for range-per-round convergence curves, where the interesting motion
// spans many decades. Eps, when > 0, draws the target threshold line.
type HTMLChart struct {
	Caption string
	Series  []float64
	Eps     float64
}

// pageStyle is the entire stylesheet, inlined into every page.
const pageStyle = `
body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto; max-width: 64rem; padding: 0 1rem; color: #1a1a2e; background: #fcfcfd; }
h1 { font-size: 1.4rem; border-bottom: 2px solid #3b5bdb; padding-bottom: .4rem; }
p.sub { color: #667; margin-top: -.5rem; }
table { border-collapse: collapse; margin: 1rem 0; font-variant-numeric: tabular-nums; }
caption { text-align: left; font-weight: 600; padding-bottom: .4rem; }
th, td { border: 1px solid #d5d9e2; padding: .25rem .6rem; text-align: right; }
th { background: #eef1f8; }
td:nth-child(4), td:nth-child(5), td:nth-child(6) { text-align: left; }
figure { margin: 1.4rem 0; }
figcaption { font-weight: 600; margin-bottom: .3rem; }
svg { background: #fff; border: 1px solid #d5d9e2; }
.axis { stroke: #aab; stroke-width: 1; }
.curve { stroke: #3b5bdb; stroke-width: 1.5; fill: none; }
.eps { stroke: #d9480f; stroke-width: 1; stroke-dasharray: 4 3; }
.lbl { font: 10px system-ui, sans-serif; fill: #667; }
`

// WriteHTMLPage renders one self-contained page: a title, an optional
// subtitle line, and a sequence of blocks (HTMLTable, HTMLChart, or a
// plain string rendered as a paragraph).
func WriteHTMLPage(w io.Writer, title, subtitle string, blocks ...any) error {
	var b strings.Builder
	b.WriteString("<!doctype html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n")
	fmt.Fprintf(&b, "<title>%s</title>\n", html.EscapeString(title))
	b.WriteString("<style>")
	b.WriteString(pageStyle)
	b.WriteString("</style>\n</head>\n<body>\n")
	fmt.Fprintf(&b, "<h1>%s</h1>\n", html.EscapeString(title))
	if subtitle != "" {
		fmt.Fprintf(&b, "<p class=\"sub\">%s</p>\n", html.EscapeString(subtitle))
	}
	for _, blk := range blocks {
		switch v := blk.(type) {
		case HTMLTable:
			writeTable(&b, v)
		case HTMLLinks:
			writeLinkTable(&b, v)
		case HTMLChart:
			writeChart(&b, v)
		case string:
			fmt.Fprintf(&b, "<p>%s</p>\n", html.EscapeString(v))
		default:
			return fmt.Errorf("report: unsupported HTML block %T", blk)
		}
	}
	b.WriteString("</body>\n</html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func writeTable(b *strings.Builder, t HTMLTable) {
	b.WriteString("<table>\n")
	if t.Caption != "" {
		fmt.Fprintf(b, "<caption>%s</caption>\n", html.EscapeString(t.Caption))
	}
	b.WriteString("<thead><tr>")
	for _, h := range t.Header {
		fmt.Fprintf(b, "<th>%s</th>", html.EscapeString(h))
	}
	b.WriteString("</tr></thead>\n<tbody>\n")
	for _, row := range t.Rows {
		b.WriteString("<tr>")
		for _, cell := range row {
			fmt.Fprintf(b, "<td>%s</td>", html.EscapeString(cell))
		}
		b.WriteString("</tr>\n")
	}
	b.WriteString("</tbody>\n</table>\n")
}

// writeLinkTable renders an HTMLLinks block: a plain table whose first
// cell of each row is an <a href>. Hrefs are relative paths, escaped
// like every other attribute; a row without one degrades to text.
func writeLinkTable(b *strings.Builder, t HTMLLinks) {
	b.WriteString("<table>\n")
	if t.Caption != "" {
		fmt.Fprintf(b, "<caption>%s</caption>\n", html.EscapeString(t.Caption))
	}
	b.WriteString("<thead><tr>")
	for _, h := range t.Header {
		fmt.Fprintf(b, "<th>%s</th>", html.EscapeString(h))
	}
	b.WriteString("</tr></thead>\n<tbody>\n")
	for i, row := range t.Rows {
		b.WriteString("<tr>")
		for j, cell := range row {
			if j == 0 && i < len(t.Hrefs) && t.Hrefs[i] != "" {
				fmt.Fprintf(b, "<td style=\"text-align:left\"><a href=\"%s\">%s</a></td>",
					html.EscapeString(t.Hrefs[i]), html.EscapeString(cell))
				continue
			}
			fmt.Fprintf(b, "<td>%s</td>", html.EscapeString(cell))
		}
		b.WriteString("</tr>\n")
	}
	b.WriteString("</tbody>\n</table>\n")
}

// Chart geometry: fixed viewBox, margins for the axis labels.
const (
	chartW, chartH = 600.0, 140.0
	chartML        = 44.0 // left margin (y labels)
	chartMB        = 18.0 // bottom margin (x labels)
	chartFloor     = 1e-9 // log floor for zero/denormal ranges
)

func writeChart(b *strings.Builder, c HTMLChart) {
	b.WriteString("<figure>\n")
	if c.Caption != "" {
		fmt.Fprintf(b, "<figcaption>%s</figcaption>\n", html.EscapeString(c.Caption))
	}
	fmt.Fprintf(b, "<svg viewBox=\"0 0 %g %g\" width=\"%g\" height=\"%g\" role=\"img\">\n",
		chartW, chartH, chartW, chartH)

	// Log-scale y over [floor, ceil]: ceil is the series max rounded up
	// to a decade, floor a decade below the positive minimum (or the
	// global floor).
	lo, hi := chartFloor, 1.0
	for _, v := range c.Series {
		if v > hi {
			hi = v
		}
	}
	posMin := math.Inf(1)
	for _, v := range c.Series {
		if v > 0 && v < posMin {
			posMin = v
		}
	}
	if !math.IsInf(posMin, 1) && posMin < 1 {
		lo = math.Pow(10, math.Floor(math.Log10(posMin)))
	}
	if c.Eps > 0 && c.Eps/10 < lo {
		lo = math.Pow(10, math.Floor(math.Log10(c.Eps/10)))
	}
	if lo < chartFloor {
		lo = chartFloor
	}
	hi = math.Pow(10, math.Ceil(math.Log10(hi)))
	logLo, logHi := float64(math.Log10(lo)), float64(math.Log10(hi))

	y := func(v float64) float64 {
		if v < lo {
			v = lo
		}
		frac := (float64(math.Log10(v)) - logLo) / (logHi - logLo)
		return float64((chartH - chartMB) * (1 - frac))
	}
	x := func(i int) float64 {
		n := len(c.Series)
		if n <= 1 {
			return chartML
		}
		return chartML + (chartW-chartML-4)*float64(i)/float64(n-1)
	}

	// Axes and decade labels.
	fmt.Fprintf(b, "<line class=\"axis\" x1=\"%g\" y1=\"0\" x2=\"%g\" y2=\"%g\"/>\n",
		chartML, chartML, chartH-chartMB)
	fmt.Fprintf(b, "<line class=\"axis\" x1=\"%g\" y1=\"%g\" x2=\"%g\" y2=\"%g\"/>\n",
		chartML, chartH-chartMB, chartW, chartH-chartMB)
	decades := int(logHi - logLo)
	step := 1
	for decades/step > 6 {
		step++
	}
	for d := 0; d <= decades; d += step {
		v := math.Pow(10, logLo+float64(d))
		fmt.Fprintf(b, "<text class=\"lbl\" x=\"2\" y=\"%g\">%.0e</text>\n", y(v)+3, v)
	}
	fmt.Fprintf(b, "<text class=\"lbl\" x=\"%g\" y=\"%g\">round %d</text>\n",
		chartW-70, chartH-4, len(c.Series)-1)

	// ε threshold.
	if c.Eps > 0 && c.Eps >= lo && c.Eps <= hi {
		ey := y(c.Eps)
		fmt.Fprintf(b, "<line class=\"eps\" x1=\"%g\" y1=\"%g\" x2=\"%g\" y2=\"%g\"/>\n",
			chartML, ey, chartW, ey)
		fmt.Fprintf(b, "<text class=\"lbl\" x=\"%g\" y=\"%g\">ε=%g</text>\n", chartW-70, ey-3, c.Eps)
	}

	// The curve.
	var pts strings.Builder
	for i, v := range c.Series {
		if i > 0 {
			pts.WriteByte(' ')
		}
		fmt.Fprintf(&pts, "%.1f,%.1f", x(i), y(v))
	}
	fmt.Fprintf(b, "<polyline class=\"curve\" points=\"%s\"/>\n", pts.String())
	b.WriteString("</svg>\n</figure>\n")
}
