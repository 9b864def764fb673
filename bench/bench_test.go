package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload with tenth-of-a-second stretches and
// checks that the benchmark itself works: every named metric is there,
// finite and of the right sign, nothing failed and nothing leaked.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		res, err := w.run(smokePlan(1, dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range slices.Concat(endToEnd(), perLayer()) {
			s, ok := res.Metrics[m.name]
			switch {
			case !ok:
				t.Errorf("%s: %s missing", w.name, m.name)
			case math.IsNaN(s.Value) || math.IsInf(s.Value, 0) || s.Value < 0:
				t.Errorf("%s: %s = %v", w.name, m.name, s.Value)
			case s.Unit != m.unit:
				t.Errorf("%s: %s in %q, want %q", w.name, m.name, s.Unit, m.unit)
			}
		}
		for _, m := range endToEnd() {
			if res.Metrics[m.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, m.name, res.Metrics[m.name].Value)
			}
		}
		for _, zero := range []string{"fail_ratio", "nmad.inflight_states_end", "trace.orphan_spans", "trace.dropped_events"} {
			if v := res.Metrics[zero].Value; v != 0 {
				t.Errorf("%s: %s = %v, want 0", w.name, zero, v)
			}
		}
		if !res.correct() {
			t.Errorf("%s: run not correct: %d of %d failed", w.name, res.Failed, res.Attempted)
		}
		for _, f := range []string{".engine.json", ".bench.json"} {
			b, err := os.ReadFile(dir + "/" + w.name + f)
			if err != nil {
				t.Error(err)
			} else if !json.Valid(b) {
				t.Errorf("%s%s is not valid JSON", w.name, f)
			}
		}
	}
}

// TestCorruptionCounts proves the receivers look: with every message
// the load side stamps deliberately corrupted, every operation of
// every message workload must count as failed.
func TestCorruptionCounts(t *testing.T) {
	for _, w := range workloads {
		if w.name == "task_sched" {
			continue // moves no payload
		}
		r, err := w.build(buildCfg{seed: 1, p: clients(), tamper: true})
		if err != nil {
			t.Fatal(err)
		}
		seg := guarded(r, driveCtl{until: after(100 * time.Millisecond)})
		r.close()
		if seg.ops == 0 || seg.failed != seg.ops {
			t.Errorf("%s: %d of %d corrupted operations counted as failed", w.name, seg.failed, seg.ops)
		}
		if seg.bytes != 0 {
			t.Errorf("%s: %d corrupted bytes counted as goodput", w.name, seg.bytes)
		}
	}
}

func TestFlowCheck(t *testing.T) {
	f := newFlow(rand.New(rand.NewSource(7)), 256)
	buf := make([]byte, 256)
	f.fill(buf)
	f.stamp(buf, 41)
	if !f.check(buf, 41, true) {
		t.Fatal("intact message rejected")
	}
	if f.check(buf, 42, false) {
		t.Error("wrong sequence number accepted")
	}
	if f.check(buf[:255], 41, false) {
		t.Error("short message accepted")
	}
	buf[100] ^= 1
	if !f.check(buf, 41, false) || f.check(buf, 41, true) {
		t.Error("a flipped body bit must pass the word check and fail the full one")
	}
	buf[100] ^= 1
	buf[255] ^= 1
	if f.check(buf, 41, false) {
		t.Error("flipped tail word accepted")
	}

	w := newWindow(f, 2)
	a, b := make([]byte, 256), make([]byte, 256)
	f.fill(a)
	f.fill(b)
	f.stamp(a, 10)
	f.stamp(b, 11)
	w.begin()
	if !w.add(b, 10, 0, true) || !w.add(a, 10, 1, true) || w.reordered != 2 {
		t.Errorf("swapped window: reordered = %d, want both accepted and 2", w.reordered)
	}
	if w.add(a, 10, 1, true) {
		t.Error("duplicate accepted")
	}
}

// TestBenchmarkJSON holds BENCHMARK.json at the root of the repository
// to the table in metrics.go: same workloads, same metrics, same units,
// directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	type entry struct {
		Name, Why, Unit, Better string
		Bound                   float64
	}
	var file struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, file.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the benchmark", len(got), kind, len(want))
		}
		for i, m := range want {
			better := "lower"
			if m.higher {
				better = "higher"
			}
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != better || g.Bound != m.bound {
				t.Errorf("%s metric %d: %+v, want %s %s %s %v", kind, i, g, m.name, m.unit, better, m.bound)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd())
	same("per_layer", file.PerLayer, perLayer())
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %v, %v; want 1, 4", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	lat, _ := findMetric("lat_p50_us")   // lower is better, bound 25 %
	rate, _ := findMetric("ops_per_s")   // higher is better, bound 25 %
	fails, _ := findMetric("fail_ratio") // any increase is worse
	for _, c := range []struct {
		m    metricDef
		a, b []float64
		want string
	}{
		{lat, []float64{100, 101, 102}, []float64{103, 104, 105}, "same"},
		{lat, []float64{100, 101, 102}, []float64{130, 131, 132}, "worse"},
		{lat, []float64{100, 101, 102}, []float64{80, 81, 82}, "better"},
		{lat, []float64{60, 100, 150}, []float64{65, 104, 148}, "unresolved"},
		{lat, []float64{60, 100, 150}, []float64{160, 170, 180}, "worse"},
		{rate, []float64{100, 101, 102}, []float64{70, 71, 72}, "worse"},
		{rate, []float64{100, 101, 102}, []float64{120, 121, 122}, "better"},
		{fails, []float64{0, 0, 0}, []float64{0, 0.001, 0.001}, "worse"},
		{fails, []float64{0, 0, 0}, []float64{0, 0, 0}, "same"},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s %v vs %v: %s, want %s", c.m.name, c.a, c.b, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rate float64) string {
		f := runFile{Runs: []runRec{{Seed: 1, Workloads: []*result{{
			Workload: "task_sched",
			Metrics:  map[string]sample{"ops_per_s": {Value: rate, Unit: "1/s"}, "fail_ratio": {}},
		}}}}}
		path := dir + "/" + name
		if err := writeAtomic(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a1.json", 100) + "," + write("a2.json", 101)
	b := write("b1.json", 60) + "," + write("b2.json", 61)
	var out bytes.Buffer
	worse, err := compareFiles(&out, a, b)
	if err != nil || !worse || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 40 %% drop: worse = %v, err = %v\n%s", worse, err, out.String())
	}
	if worse, _ := compareFiles(&out, a, a); worse {
		t.Error("a set compared with itself reads worse")
	}
	if left, _ := os.ReadDir(dir); len(left) != 4 {
		t.Errorf("writeAtomic left %d files behind, want the 4 written", len(left))
	}
}

func TestList(t *testing.T) {
	var out bytes.Buffer
	printList(&out)
	for _, w := range workloads {
		if !strings.Contains(out.String(), w.name) {
			t.Errorf("-list omits workload %s", w.name)
		}
	}
	for _, m := range slices.Concat(endToEnd(), perLayer()) {
		if !strings.Contains(out.String(), m.name) {
			t.Errorf("-list omits metric %s", m.name)
		}
	}
}
