// Package experiments contains one harness per table and figure of the
// paper's evaluation (§V), rendered in the paper's format beside its
// published values or shape. Tables I/II and the big-lock ablation run
// the simmachine cost model and Figures 5-7 run two real nmad engines
// over fabric.SimFabric: both read only a virtual clock, so their output
// is identical from run to run on any host. Figure 4 runs the real
// engines on the wall clock and depends on the host (printed beside it).
//
// The cmd/piobench binary and the repository-level benchmarks are thin
// wrappers over this package.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Experiment is one reproducible artifact of the paper.
type Experiment struct {
	// ID is the handle used by `piobench -run <id>` (e.g. "table1").
	ID string
	// Paper names the artifact in the paper (e.g. "Table I").
	Paper string
	// Description says what is measured.
	Description string
	// Run executes the experiment and returns rendered output.
	Run func() (string, error)
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	registry[e.ID] = e
}

// ByID looks up an experiment.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[strings.ToLower(strings.TrimSpace(id))]
	return e, ok
}

// All returns every experiment sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// RunAll executes every experiment in ID order and concatenates outputs.
func RunAll() (string, error) {
	var b strings.Builder
	for _, e := range All() {
		out, err := e.Run()
		if err != nil {
			return b.String(), fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintf(&b, "### %s — %s\n%s\n%s\n", e.ID, e.Paper, e.Description, out)
	}
	return b.String(), nil
}
