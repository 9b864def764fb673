// Package stats provides the small statistical and rendering helpers the
// experiment harnesses use: summary statistics over samples, and
// table / series formatting for paper-style output (ASCII and CSV).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds basic statistics over a sample set.
type Summary struct {
	N      int
	Mean   float64
	Min    float64
	Max    float64
	Median float64
	StdDev float64
}

// Summarize computes summary statistics. An empty input yields a zero
// Summary.
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	s := Summary{N: len(samples), Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for _, v := range samples {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(len(samples))
	varsum := 0.0
	for _, v := range samples {
		d := v - s.Mean
		varsum += d * d
	}
	s.StdDev = math.Sqrt(varsum / float64(len(samples)))
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

// Imbalance returns max/mean over the samples — 1.0 for perfectly even
// load, climbing as load concentrates. The scheduling benchmarks use it
// to report how evenly executions spread across CPUs (per-CPU sharded
// counters make the per-CPU series cheap to collect). Empty or all-zero
// input yields 0.
func Imbalance(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	max, sum := 0.0, 0.0
	for _, v := range samples {
		if v > max {
			max = v
		}
		sum += v
	}
	if sum == 0 {
		return 0
	}
	return max / (sum / float64(len(samples)))
}

// Migration summarizes work-stealing effectiveness from the engine's
// raw steal counters: drains attempted on victim queues, attempts that
// migrated at least one task, and tasks executed by a thief. The
// benchmark harnesses and examples use it to render steal columns
// without each re-deriving the rates.
type Migration struct {
	Attempts uint64
	Hits     uint64
	Tasks    uint64
}

// HitRate returns Hits/Attempts — how often reaching into a victim
// queue actually migrated work (1.0 means victim selection never chose
// an empty or unrunnable backlog). Zero attempts yield 0.
func (m Migration) HitRate() float64 {
	if m.Attempts == 0 {
		return 0
	}
	return float64(m.Hits) / float64(m.Attempts)
}

// StolenFraction returns the share of the given total executions that
// were stolen-task executions. Zero total yields 0.
func (m Migration) StolenFraction(totalExecutions uint64) float64 {
	if totalExecutions == 0 {
		return 0
	}
	return float64(m.Tasks) / float64(totalExecutions)
}

// RelError returns |estimate−truth|/|truth| — the convergence metric
// the calibration tests and examples report (0.2 means the estimate
// landed within 20% of the configured value). A zero truth yields +Inf
// for a non-zero estimate and 0 for a zero one.
func RelError(estimate, truth float64) float64 {
	if truth == 0 {
		if estimate == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(estimate-truth) / math.Abs(truth)
}

// Percentile returns the p-th percentile (0-100) using nearest-rank.
func Percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// Table is a simple column-aligned table for paper-style output.
type Table struct {
	Title   string
	Header  []string
	Rows    [][]string
	Caption string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Caption != "" {
		fmt.Fprintf(&b, "%s\n", t.Caption)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (header first).
func (t *Table) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, t.Header)
	for _, row := range t.Rows {
		writeCSVRow(&b, row)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
		}
		b.WriteString(c)
	}
	b.WriteByte('\n')
}

// Series is one named curve of (x, y) points — a line in a paper figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Figure is a set of series sharing axes — one paper figure panel.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// AddSeries creates, registers and returns a named series.
func (f *Figure) AddSeries(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// String renders the figure as an aligned data table: one x column, one
// column per series — suitable for eyeballing or piping to a plotter.
func (f *Figure) String() string {
	t := Table{Title: fmt.Sprintf("%s  (y: %s)", f.Title, f.YLabel)}
	t.Header = append(t.Header, f.XLabel)
	for _, s := range f.Series {
		t.Header = append(t.Header, s.Name)
	}
	// Collect the union of x values in order of first appearance.
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range f.Series {
		for _, x := range s.X {
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
	}
	sort.Float64s(xs)
	for _, x := range xs {
		row := []string{trimFloat(x)}
		for _, s := range f.Series {
			cell := ""
			for i, sx := range s.X {
				if sx == x {
					cell = trimFloat(s.Y[i])
					break
				}
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	return t.String()
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.3f", v)
}
