package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/ssrg-vt/rinval/internal/plot"
)

// ChartKind selects which measurement a chart plots.
type ChartKind int

const (
	// ChartThroughput plots K tx/s vs threads (Figure 7 style).
	ChartThroughput ChartKind = iota
	// ChartElapsed plots execution time in milliseconds vs threads
	// (Figure 8 style).
	ChartElapsed
)

// Chart converts the table into an SVG-renderable line chart with one
// series per algorithm over the thread axis.
func (t *Table) Chart(kind ChartKind) *plot.Chart {
	byAlgo := map[string][]Row{}
	var order []string
	for _, r := range t.Rows {
		if _, seen := byAlgo[r.Algo]; !seen {
			order = append(order, r.Algo)
		}
		byAlgo[r.Algo] = append(byAlgo[r.Algo], r)
	}
	c := &plot.Chart{Title: t.Title, XLabel: "threads"}
	switch kind {
	case ChartElapsed:
		c.YLabel = "execution time (ms)"
	default:
		c.YLabel = "K transactions / second"
	}
	for _, algo := range order {
		rows := byAlgo[algo]
		sort.Slice(rows, func(i, j int) bool { return rows[i].Threads < rows[j].Threads })
		s := plot.Series{Name: algo}
		for _, r := range rows {
			s.X = append(s.X, float64(r.Threads))
			switch kind {
			case ChartElapsed:
				s.Y = append(s.Y, r.Elapsed.Seconds()*1e3)
			default:
				s.Y = append(s.Y, r.KTxPerSec)
			}
		}
		c.Series = append(c.Series, s)
	}
	return c
}

// RenderSVG writes the table's chart as SVG.
func (t *Table) RenderSVG(w io.Writer, kind ChartKind) error {
	return t.Chart(kind).Render(w)
}

// SVGFileName derives a filesystem-friendly name from the table title: the
// label before its first ':' ("Figure 7 (50% reads)" → figure-7-50-reads.svg).
// Every ablation shares the label "Ablation", so its subject — the text after
// the ':' up to the first '(' or ',' — is added to tell them apart.
func (t *Table) SVGFileName() string {
	label, subject, _ := strings.Cut(t.Title, ":")
	if strings.TrimSpace(label) == "Ablation" {
		if i := strings.IndexAny(subject, "(,"); i >= 0 {
			subject = subject[:i]
		}
		label += " " + subject
	}
	name := strings.TrimSpace(strings.ToLower(label))
	var b strings.Builder
	lastDash := false
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
			lastDash = false
		default:
			if !lastDash && b.Len() > 0 {
				b.WriteByte('-')
				lastDash = true
			}
		}
	}
	return fmt.Sprintf("%s.svg", strings.TrimSuffix(b.String(), "-"))
}
