package obs

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pioman/internal/admit"
	"pioman/internal/cluster"
	"pioman/internal/core"
	"pioman/internal/nmad"
	"pioman/internal/trace"
)

// scrape drives the server handler through httptest and returns the
// response.
func scrape(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// TestMetricsSeriesCoverage is the acceptance gate: a registry over a
// live core engine, a live nmad engine, and cluster results must
// expose at least 25 distinct series spanning the core, nmad,
// adapt (per-rail calibrated estimates), and cluster groups.
func TestMetricsSeriesCoverage(t *testing.T) {
	eng := core.New(core.Config{LatencyStats: true})
	for i := 0; i < 8; i++ {
		eng.MustSubmit(&core.Task{Fn: func(any) bool { return true }})
	}
	for eng.Pending() > 0 {
		eng.Schedule(0)
	}

	da, db := nmad.MemPair()
	sender := nmad.NewEngine(nmad.Config{})
	receiver := nmad.NewEngine(nmad.Config{})
	defer sender.Close()
	defer receiver.Close()
	ga, err := sender.NewGate(da)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := receiver.NewGate(db)
	if err != nil {
		t.Fatal(err)
	}
	recv := gb.Irecv(7)
	if err := ga.Isend(7, []byte("hello metrics")).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := recv.Wait(); err != nil {
		t.Fatal(err)
	}

	results := []cluster.Result{{Scenario: "fake", Nodes: 4, Transfers: 6, Completed: 6, LatencyP50Ns: 1000, LatencyP99Ns: 9000}}

	reg := NewRegistry()
	reg.Register(
		NewCoreCollector("tasks", eng),
		NewNmadCollector("node0", sender),
		NewClusterCollector(func() []cluster.Result { return results }),
		NewGoCollector(),
	)
	srv := NewServer(ServerConfig{Registry: reg})
	code, body := scrape(t, srv.Handler(), "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics returned %d", code)
	}

	series := map[string]bool{}
	families := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		series[strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")] = true
		if i := strings.Index(line, " "); i >= 0 {
			series[line[:strings.LastIndex(line, " ")]] = true
		}
		families[name] = true
	}
	distinct := 0
	for _, line := range strings.Split(body, "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			distinct++
		}
	}
	if distinct < 25 {
		t.Fatalf("/metrics exposes %d series, want ≥ 25:\n%s", distinct, body)
	}
	for _, want := range []string{
		"pioman_core_executions_total",                // core
		"pioman_core_drain_latency_ns_bucket",         // core histogram
		"pioman_nmad_msgs_sent_total",                 // nmad
		"pioman_nmad_rail_bandwidth_bytes_per_second", // adapt estimates
		"pioman_nmad_rail_latency_ns",                 // adapt estimates
		"pioman_cluster_latency_p99_ns",               // cluster
	} {
		if !families[want] {
			t.Errorf("/metrics missing %s:\n%s", want, body)
		}
	}
	// The snapshot-discipline tie-out: within one scrape the core
	// counters must satisfy Σexecutions(ExecPerCPU) == executions.
	var perCPU, total uint64
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "pioman_core_cpu_executions_total{") {
			var v uint64
			if _, err := fmtSscan(line[strings.LastIndex(line, " ")+1:], &v); err == nil {
				perCPU += v
			}
		}
		if strings.HasPrefix(line, "pioman_core_executions_total{") {
			_, _ = fmtSscan(line[strings.LastIndex(line, " ")+1:], &total)
		}
	}
	if perCPU != total {
		t.Errorf("torn scrape: Σ per-CPU executions %d != executions %d", perCPU, total)
	}
}

// fmtSscan parses one base-10 uint64, the only numeric shape the
// tie-out needs.
func fmtSscan(s string, v *uint64) (int, error) {
	var n uint64
	if s == "" {
		return 0, errors.New("empty")
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, errors.New("not a uint")
		}
		n = n*10 + uint64(c-'0')
	}
	*v = n
	return 1, nil
}

func TestHealthzTransitions(t *testing.T) {
	var now atomic.Int64
	now.Store(1)
	clock := func() int64 { return now.Load() }
	tasks := core.New(core.Config{})
	e := nmad.NewEngine(nmad.Config{Tasks: tasks, NoAutoProgress: true, Clock: clock})
	defer e.Close()

	h := NewHealth()
	h.Register("nmad", NmadLiveness(e, clock, time.Second))
	srv := NewServer(ServerConfig{Health: h})
	handler := srv.Handler()

	// 1. Before any progression pass: unhealthy.
	if code, body := scrape(t, handler, "/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("pre-progression /healthz = %d (%q), want 503", code, body)
	}

	// 2. One progression pass (the deadline sweep stamps the clock):
	// healthy.
	tasks.Schedule(0)
	if code, body := scrape(t, handler, "/healthz"); code != http.StatusOK {
		t.Fatalf("post-progression /healthz = %d (%q), want 200", code, body)
	}

	// 3. Clock advances past the window with no progression: unhealthy
	// again.
	now.Add(int64(2 * time.Second))
	if code, body := scrape(t, handler, "/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("stalled /healthz = %d (%q), want 503", code, body)
	}

	// 4. Progression resumes: healthy.
	tasks.Schedule(0)
	if code, body := scrape(t, handler, "/healthz"); code != http.StatusOK {
		t.Fatalf("recovered /healthz = %d (%q), want 200", code, body)
	}

	// 5. The engine's only gate loses its only rail (its peer is gone,
	// so every send fails): unhealthy, and the report names the gate
	// failure.
	near, far := nmad.MemPair()
	far.Close()
	g, err := e.NewGate(near)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Isend(1, []byte("doomed")).Wait(); err == nil {
		t.Fatal("send over dead rail should fail")
	}
	tasks.Schedule(0)
	code, body := scrape(t, handler, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("failed-gate /healthz = %d, want 503", code)
	}
	if !strings.Contains(body, "gate") {
		t.Fatalf("failed-gate report %q should name the gate failure", body)
	}
}

// TestHealthzStallRecovery pins the recovery direction of the liveness
// contract: /healthz must flip 503→200 every time progression resumes
// after a stall, across repeated stall/recover cycles, with the
// per-probe report tracking the state. A probe that latches unhealthy
// (or a server that caches a verdict) fails here even though the
// single-transition test passes.
func TestHealthzStallRecovery(t *testing.T) {
	var now atomic.Int64
	now.Store(1)
	clock := func() int64 { return now.Load() }
	tasks := core.New(core.Config{})
	e := nmad.NewEngine(nmad.Config{Tasks: tasks, NoAutoProgress: true, Clock: clock})
	defer e.Close()

	h := NewHealth()
	h.Register("nmad", NmadLiveness(e, clock, time.Second))
	handler := NewServer(ServerConfig{Health: h}).Handler()

	tasks.Schedule(0) // first progression pass: healthy baseline
	if code, body := scrape(t, handler, "/healthz"); code != http.StatusOK {
		t.Fatalf("baseline /healthz = %d (%q), want 200", code, body)
	}
	for cycle := 0; cycle < 3; cycle++ {
		// Stall: the clock runs past the window with no progression.
		now.Add(int64(2 * time.Second))
		code, body := scrape(t, handler, "/healthz")
		if code != http.StatusServiceUnavailable {
			t.Fatalf("cycle %d stalled /healthz = %d (%q), want 503", cycle, code, body)
		}
		if !strings.Contains(body, "progression last ran") {
			t.Fatalf("cycle %d stalled report %q should blame the stall", cycle, body)
		}
		// Recovery: one progression pass restamps the clock; the very
		// next scrape must be 200 again.
		tasks.Schedule(0)
		code, body = scrape(t, handler, "/healthz")
		if code != http.StatusOK {
			t.Fatalf("cycle %d recovered /healthz = %d (%q), want 200", cycle, code, body)
		}
		if !strings.Contains(body, "nmad: ok") {
			t.Fatalf("cycle %d recovered report %q should show the probe ok", cycle, body)
		}
	}
}

// TestNmadLivenessWhileIdleParked: an idle engine whose progression
// loop parks between passes still stamps LastProgress at least once per
// sweep tick (RdvTimeout/8), so a liveness probe with a window of four
// ticks stays healthy for two whole windows. A loop that parked without
// a timeout would go stale here.
func TestNmadLivenessWhileIdleParked(t *testing.T) {
	ea, eb := nmad.NewEngine(nmad.Config{}), nmad.NewEngine(nmad.Config{})
	defer ea.Close()
	defer eb.Close()
	da, db := nmad.MemPair()
	if _, err := ea.NewGate(da); err != nil {
		t.Fatal(err)
	}
	if _, err := eb.NewGate(db); err != nil {
		t.Fatal(err)
	}
	tick := 500 * time.Millisecond / 8 // the default RdvTimeout's sweep tick
	window := 4 * tick
	probe := NmadLiveness(ea, nil, window)
	for ea.LastProgress() == 0 {
		time.Sleep(time.Millisecond)
	}
	execs := ea.Tasks().Stats().Executions
	for end := time.Now().Add(2 * window); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		if err := probe(); err != nil {
			t.Fatalf("idle engine reported unhealthy: %v", err)
		}
	}
	if n := ea.Tasks().Stats().Executions - execs; n > 16 {
		t.Errorf("the engine ran %d tasks over two idle windows: its loop is not parked", n)
	}
}

// TestMetricsScrapeUnderLiveTraffic scrapes /metrics concurrently with
// live eager+rendezvous traffic — the -race leg proving the collectors'
// snapshot reads don't race the sharded writers.
func TestMetricsScrapeUnderLiveTraffic(t *testing.T) {
	da, db := nmad.MemPair()
	sender := nmad.NewEngine(nmad.Config{})
	receiver := nmad.NewEngine(nmad.Config{})
	defer sender.Close()
	defer receiver.Close()
	ga, err := sender.NewGate(da)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := receiver.NewGate(db)
	if err != nil {
		t.Fatal(err)
	}

	rec := trace.New(4, 1024, nil)
	reg := NewRegistry()
	reg.Register(
		NewNmadCollector("sender", sender),
		NewNmadCollector("receiver", receiver),
		NewCoreCollector("sender-tasks", sender.Tasks()),
		NewGoCollector(),
	)
	srv := NewServer(ServerConfig{Registry: reg, Trace: rec})
	handler := srv.Handler()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		big := make([]byte, 64<<10) // above the eager threshold: rendezvous
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			payload := []byte("eager traffic")
			if i%8 == 0 {
				payload = big
			}
			r := gb.Irecv(i)
			if err := ga.Isend(i, payload).Wait(); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
			if err := r.Wait(); err != nil {
				t.Errorf("recv %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		code, body := scrape(t, handler, "/metrics")
		if code != http.StatusOK {
			t.Fatalf("scrape %d returned %d", i, code)
		}
		if !strings.Contains(body, "pioman_nmad_msgs_sent_total") {
			t.Fatalf("scrape %d missing nmad series", i)
		}
	}
	close(stop)
	wg.Wait()
}

func TestTraceEndpoint(t *testing.T) {
	// Without a recorder: 404.
	srv := NewServer(ServerConfig{})
	if code, _ := scrape(t, srv.Handler(), "/debug/trace"); code != http.StatusNotFound {
		t.Fatalf("/debug/trace without recorder = %d, want 404", code)
	}

	rec := trace.New(2, 64, nil)
	rec.Record(0, trace.EvTaskRun, 1, 0)
	rec.Record(1, trace.EvRdvRTS, 9, 4096)
	srv = NewServer(ServerConfig{Trace: rec})
	code, body := scrape(t, srv.Handler(), "/debug/trace")
	if code != http.StatusOK {
		t.Fatalf("/debug/trace = %d, want 200", code)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/debug/trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("/debug/trace has %d events, want 2", len(doc.TraceEvents))
	}
}

// TestAdmissionObservability walks the overload surface end to end: an
// engine with a one-request gate budget holds a rendezvous send
// inflight, a second send is rejected fail-fast, /metrics exposes the
// admission counters and the degraded gauge, and /healthz reports the
// degraded state through the info section while STAYING 200 — degraded
// is load-shedding, not dead. Draining the inflight must recover both.
func TestAdmissionObservability(t *testing.T) {
	da, db := nmad.MemPair()
	sender := nmad.NewEngine(nmad.Config{
		Admit:       &admit.Config{GateRequests: 1, GateBytes: 1 << 20, HighWater: 0.5, LowWater: 0.25},
		AdmitPolicy: nmad.AdmitReject,
	})
	receiver := nmad.NewEngine(nmad.Config{})
	defer sender.Close()
	defer receiver.Close()
	ga, err := sender.NewGate(da)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := receiver.NewGate(db)
	if err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry()
	reg.Register(NewNmadCollector("sender", sender))
	h := NewHealth()
	h.RegisterInfo("admission", NmadAdmission(sender))
	handler := NewServer(ServerConfig{Registry: reg, Health: h}).Handler()

	// A rendezvous send with no posted receive holds its credits; the
	// gate budget is one request, so the next send is shed fail-fast.
	big := make([]byte, 64<<10)
	inflight := ga.Isend(1, big)
	if err := ga.Isend(2, big).Wait(); err != nmad.ErrAdmissionReject {
		t.Fatalf("second send err = %v, want ErrAdmissionReject", err)
	}

	code, body := scrape(t, handler, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		`pioman_nmad_admit_rejected_total{engine="sender"} 1`,
		`pioman_nmad_admit_inflight_requests{engine="sender"} 1`,
		`pioman_nmad_admit_degraded{engine="sender"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	code, body = scrape(t, handler, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("degraded /healthz = %d, want 200 — degraded is not dead", code)
	}
	if !strings.Contains(body, "degraded (shedding load, not dead)") {
		t.Fatalf("degraded /healthz report %q should surface the degraded state", body)
	}

	// Drain the inflight: credits come back, the scope recovers, and
	// both surfaces must reflect it.
	recv := gb.Irecv(1)
	if err := inflight.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := recv.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, body = scrape(t, handler, "/metrics"); !strings.Contains(body,
		`pioman_nmad_admit_degraded{engine="sender"} 0`) {
		t.Errorf("/metrics should show the scope recovered:\n%s", body)
	}
	if _, body = scrape(t, handler, "/healthz"); !strings.Contains(body, "admission: healthy") {
		t.Errorf("recovered /healthz report %q should show admission healthy", body)
	}
}

func TestPprofMounted(t *testing.T) {
	srv := NewServer(ServerConfig{})
	code, body := scrape(t, srv.Handler(), "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d, want the pprof index", code)
	}
}

func TestServerStartShutdown(t *testing.T) {
	srv := NewServer(ServerConfig{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz over the wire = %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}
