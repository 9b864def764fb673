// Command piobench regenerates the tables and figures of the paper's
// evaluation (§V). Each experiment prints its measurements in the
// paper's format next to the paper's published values or shape.
//
// table1, table2 and ablation-biglock run a cost model of the paper's
// NUMA machines, and fig5, fig6 and fig7 run the real nmad engine over a
// simulated InfiniBand rail; both read only a virtual clock, so their
// output is byte-identical from run to run, on any host and at any
// GOMAXPROCS. fig4 runs the real engine on the wall clock: its numbers
// depend on the host's CPUs and load, and it prints the host shape
// beside them.
//
// Usage:
//
//	piobench -list             # show available experiments
//	piobench -run table1       # run one experiment
//	piobench -run all          # run everything (default)
//	piobench -http 127.0.0.1:9187
//	                           # serve /metrics, /healthz and
//	                           # /debug/pprof while the experiments run;
//	                           # stays up after them until SIGINT or
//	                           # SIGTERM, then shuts down gracefully
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pioman/internal/experiments"
	"pioman/internal/obs"
)

func main() {
	run := flag.String("run", "all", "experiment id to run (see -list), or 'all'")
	list := flag.Bool("list", false, "list available experiments")
	httpAddr := flag.String("http", "", "serve /metrics, /healthz and /debug/pprof on this address; keeps serving after the run until SIGINT")
	flag.Parse()

	if *list {
		fmt.Println("available experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-18s %-10s %s\n", e.ID, e.Paper, e.Description)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var srv *obs.Server
	if *httpAddr != "" {
		reg := obs.NewRegistry()
		reg.Register(obs.NewGoCollector())
		srv = obs.NewServer(obs.ServerConfig{Addr: *httpAddr, Registry: reg, Health: obs.NewHealth()})
		if err := srv.Start(); err != nil {
			fmt.Fprintln(os.Stderr, "http:", err)
			os.Exit(2)
		}
		fmt.Printf("serving metrics on http://%s/metrics\n", srv.Addr())
	}

	code := runExperiments(*run)

	if srv != nil && code == 0 {
		fmt.Printf("experiments done; serving on http://%s until SIGINT\n", srv.Addr())
		<-ctx.Done()
		stop()
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			fmt.Fprintln(os.Stderr, "shutdown:", err)
			os.Exit(1)
		}
	}
	if code != 0 {
		os.Exit(code)
	}
}

// runExperiments executes the requested experiment set and returns the
// process exit code.
func runExperiments(run string) int {
	if run == "all" {
		out, err := experiments.RunAll()
		fmt.Print(out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return 1
		}
		return 0
	}

	e, ok := experiments.ByID(run)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", run)
		return 2
	}
	out, err := e.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return 1
	}
	fmt.Printf("### %s — %s\n%s\n%s", e.ID, e.Paper, e.Description, out)
	return 0
}
