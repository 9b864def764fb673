// Command bench is this repository's benchmark: five closed-loop
// workloads through the public API of the stack, measured end to end
// and, from outside, layer by layer. README.md describes the workloads,
// the metrics and how they should move one another.
//
//	go run . -seed 1 -out /tmp/b.json      every workload, both passes
//	go run . -workload rpc_tcp -trace 0    one workload, end-to-end metrics only
//	go run . -list                         the workloads and the metrics
//	go run . -compare A.json B.json        do two sets of runs agree?
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// runFile is what -out holds: the host the runs were taken on and the
// runs themselves. -compare reads two sets of these.
type runFile struct {
	Host    hostInfo `json:"host"`
	Seconds float64  `json:"seconds"`
	Runs    []runRec `json:"runs"`
}

// runRec is one pass over the selected workloads with one seed.
type runRec struct {
	Seed      int64     `json:"seed"`
	Workloads []*result `json:"workloads"`
}

// hostInfo fingerprints the host, so that figures from different
// machines are never compared by accident.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	Kernel     string `json:"kernel"`
	Link       string `json:"link"`
}

func host() hostInfo {
	h := hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: clients(),
		Go: runtime.Version(), Link: "loopback / in-process rails, no real link",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}

func main() {
	var (
		name     = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "seed the workloads' inputs are generated from")
		seconds  = flag.Float64("seconds", 20, "seconds of timed measurement per workload, in segments of two (halved with -trace 1)")
		traceArg = flag.String("trace", "both", "0: end-to-end metrics only; 1: per-layer metrics (adds the traced pass and the probes); both")
		out      = flag.String("out", "", "write the runs as JSON to this file")
		traceDir = flag.String("trace-dir", "", "directory for the traced pass's chrome://tracing files (default: a temporary directory)")
		runs     = flag.Int("runs", 1, "repeat the whole pass this many times into one -out file")
		smoke    = flag.Bool("smoke", false, "tenth-of-a-second stretches and short probes: checks the benchmark, measures nothing")
		list     = flag.Bool("list", false, "print the workloads and the metrics, then exit")
		compare  = flag.Bool("compare", false, "compare two sets of runs: -compare A.json[,A2.json...] B.json[,B2.json...]; exit 1 if B is worse")
	)
	flag.Parse()
	switch {
	case *list:
		printList(os.Stdout)
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two sets of run files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	default:
		if flag.NArg() != 0 {
			fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
		}
		if *traceArg != "0" && *traceArg != "1" && *traceArg != "both" {
			fatal(fmt.Errorf("-trace must be 0, 1 or both"))
		}
		if err := measure(*name, *seed, *seconds, *traceArg, *out, *traceDir, *runs, *smoke); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// measure runs the selected workloads and prints every metric once as
// "workload metric value unit n=samples". When one workload was asked
// for, the last line is its result as one JSON object, in the shape the
// repository's benchmark driver reads.
func measure(name string, seed int64, seconds float64, traceArg, out, traceDir string, runs int, smoke bool) error {
	selected := workloads
	if name != "all" {
		w := findWorkload(name)
		if w == nil {
			return fmt.Errorf("no workload %q; -list names them", name)
		}
		selected = []workload{*w}
	}
	if traceDir == "" && traceArg != "0" {
		dir, err := os.MkdirTemp("", "pioman-bench-")
		if err != nil {
			return err
		}
		traceDir = dir
		fmt.Fprintln(os.Stderr, "bench: traces in", dir)
	}
	file := runFile{Host: host(), Seconds: seconds}
	timed := seconds
	if traceArg == "1" {
		// A per-layer run spends half its time in the traced pass and
		// the probes; its counters need no more.
		timed = seconds / 2
	}
	pl := newPlan(seed, timed, traceArg != "0", traceDir)
	if smoke {
		pl = smokePlan(seed, traceDir)
		pl.traced = traceArg != "0"
	}
	var last *result
	for i := 0; i < runs; i++ {
		rec := runRec{Seed: seed}
		for _, w := range selected {
			res, err := w.run(pl)
			if err != nil {
				return err
			}
			printRows(res, traceArg)
			rec.Workloads = append(rec.Workloads, res)
			last = res
		}
		file.Runs = append(file.Runs, rec)
	}
	if out != "" {
		if err := writeAtomic(out, file); err != nil {
			return err
		}
	}
	if name != "all" {
		return printDriverLine(last, traceArg)
	}
	return nil
}

// reported returns the metrics a run with the given -trace reports.
func reported(traceArg string) []metricDef {
	switch traceArg {
	case "0":
		return endToEnd()
	case "1":
		return perLayer()
	}
	return slices.Concat(endToEnd(), perLayer())
}

func printRows(res *result, traceArg string) {
	for _, m := range reported(traceArg) {
		if s, ok := res.Metrics[m.name]; ok {
			fmt.Printf("%s %s %.6g %s n=%d\n", res.Workload, m.name, s.Value, s.Unit, s.N)
		}
	}
	for _, note := range res.Notes {
		fmt.Printf("# %s: %s\n", res.Workload, note)
	}
}

func printDriverLine(res *result, traceArg string) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	for _, m := range reported(traceArg) {
		s := res.Metrics[m.name]
		line.Metrics[m.name] = value{s.Value, m.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// correct reports whether every output was verified and nothing was
// left behind in the protocol tables.
func (r *result) correct() bool {
	return r.Attempted > 0 && r.Failed == 0 && r.Metrics["nmad.inflight_states_end"].Value == 0
}

// writeAtomic writes v as JSON beside path and renames it into place,
// so that a reader never sees half a file.
func writeAtomic(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // a no-op once renamed
	if _, err := tmp.Write(append(b, '\n')); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// printList prints every workload with why it exists and every metric
// with its unit, direction and bound.
func printList(w io.Writer) {
	fmt.Fprintf(w, "workloads (closed loop, %d client(s) on this host):\n", clients())
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-13s %s\n", wl.name, wl.why)
	}
	dir := func(m metricDef) string {
		if m.higher {
			return "higher"
		}
		return "lower"
	}
	fmt.Fprintln(w, "\nend-to-end metrics (per workload; bound = share of the parent's median it may worsen by):")
	for _, m := range slices.Concat(gated, derived) {
		fmt.Fprintf(w, "  %-13s %-6s %-6s bound %-5s %s\n", m.name, m.unit, dir(m), boundText(m), m.moves)
	}
	fmt.Fprintln(w, "\nper-layer metrics (no bound; -> what each should move, and nothing else):")
	byLayer := map[string][]metricDef{}
	var layers []string
	for _, m := range layered {
		if byLayer[m.layer] == nil {
			layers = append(layers, m.layer)
		}
		byLayer[m.layer] = append(byLayer[m.layer], m)
	}
	sort.Strings(layers)
	for _, l := range layers {
		for _, m := range byLayer[l] {
			fmt.Fprintf(w, "  %-36s %-6s %-6s -> %s\n", m.name, m.unit, dir(m), m.moves)
		}
	}
}
