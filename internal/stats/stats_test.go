package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("Summary = %+v", s)
	}
	if math.Abs(s.StdDev-math.Sqrt(2)) > 1e-9 {
		t.Errorf("StdDev = %f, want sqrt(2)", s.StdDev)
	}
}

func TestSummarizeEvenMedian(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.Median != 2.5 {
		t.Errorf("Median = %f, want 2.5", s.Median)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Errorf("empty Summary = %+v", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("Summarize reordered its input")
	}
}

func TestPercentile(t *testing.T) {
	samples := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct{ p, want float64 }{
		{0, 10}, {50, 50}, {90, 90}, {100, 100}, {10, 10},
	}
	for _, c := range cases {
		if got := Percentile(samples, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile of empty should be 0")
	}
}

func TestQuickSummaryInvariants(t *testing.T) {
	f := func(raw []float64) bool {
		var clean []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := Summarize(clean)
		return s.Min <= s.Mean && s.Mean <= s.Max &&
			s.Min <= s.Median && s.Median <= s.Max &&
			s.StdDev >= 0 && s.N == len(clean)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{
		Title:   "TABLE I",
		Header:  []string{"core", "#0", "#1"},
		Caption: "Time given in nanoseconds.",
	}
	tb.AddRow("per-core queues", "770", "788")
	out := tb.String()
	for _, want := range []string{"TABLE I", "core", "#0", "770", "nanoseconds"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := Table{Header: []string{"a", "b"}}
	tb.AddRow("1", "x,y")
	tb.AddRow("2", `say "hi"`)
	csv := tb.CSV()
	want := "a,b\n1,\"x,y\"\n2,\"say \"\"hi\"\"\"\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}

func TestFigureRendering(t *testing.T) {
	fig := Figure{Title: "Fig 4", XLabel: "threads", YLabel: "latency (µs)"}
	mv := fig.AddSeries("MVAPICH")
	pm := fig.AddSeries("PIOMan")
	mv.Add(1, 4.5)
	mv.Add(2, 9.0)
	pm.Add(1, 10.0)
	pm.Add(2, 10.1)
	out := fig.String()
	for _, want := range []string{"Fig 4", "threads", "MVAPICH", "PIOMan", "4.500", "10.100"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure rendering missing %q:\n%s", want, out)
		}
	}
}

func TestFigureUnionOfXValues(t *testing.T) {
	fig := Figure{XLabel: "x"}
	a := fig.AddSeries("a")
	b := fig.AddSeries("b")
	a.Add(1, 10)
	b.Add(2, 20)
	out := fig.String()
	if !strings.Contains(out, "1") || !strings.Contains(out, "2") {
		t.Errorf("figure should include union of x values:\n%s", out)
	}
}

func TestImbalance(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{0, 0, 0}, 0},
		{[]float64{5, 5, 5, 5}, 1},
		{[]float64{4, 0, 0, 0}, 4},
		{[]float64{3, 1}, 1.5},
	}
	for _, c := range cases {
		if got := Imbalance(c.in); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Imbalance(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMigration(t *testing.T) {
	var zero Migration
	if zero.HitRate() != 0 || zero.StolenFraction(0) != 0 {
		t.Error("zero Migration must yield zero rates")
	}
	m := Migration{Attempts: 8, Hits: 6, Tasks: 48}
	if got := m.HitRate(); got != 0.75 {
		t.Errorf("HitRate = %v, want 0.75", got)
	}
	if got := m.StolenFraction(96); got != 0.5 {
		t.Errorf("StolenFraction = %v, want 0.5", got)
	}
}

func TestRelError(t *testing.T) {
	cases := []struct {
		est, truth, want float64
	}{
		{8e9, 8e9, 0},
		{7.2e9, 8e9, 0.1},
		{1.2e9, 1e9, 0.2},
		{0, 0, 0},
	}
	for _, c := range cases {
		if got := RelError(c.est, c.truth); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("RelError(%v, %v) = %v, want %v", c.est, c.truth, got, c.want)
		}
	}
	if got := RelError(1, 0); !math.IsInf(got, 1) {
		t.Errorf("RelError(1, 0) = %v, want +Inf", got)
	}
}
