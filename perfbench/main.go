// Command perfbench is the repository's end-to-end benchmark of
// cmd/semiserve: it generates a workload's fixed op list from a seed,
// launches a fresh server, drives the list over one keep-alive connection
// in a closed loop, checks every answer, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics of a traced pass
// plus an in-process replay). See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// workload is one traffic shape.
type workload struct {
	name string
	// limitMs is the latency limit slo_attainment counts against.
	limitMs float64
	// rate is the nominal op rate (ops/s) on a 2-core x86-64 machine; the
	// op list holds rate × seconds ops, so a run measures about that long
	// and every run of one seed does identical work.
	rate   float64
	minOps int
	plan   func(seed int64, n int) (*plan, error)
}

var workloads = []workload{
	{name: "hit", limitMs: 100, rate: 45, minOps: 120, plan: planHit},
	{name: "paper", limitMs: 500, rate: 11, minOps: 120, plan: planPaper},
	{name: "exact", limitMs: 100, rate: 200, minOps: 400, plan: planExact},
	{name: "session", limitMs: 10, rate: 1800, minOps: 2 * (sessionEvents + 2), plan: planSession},
}

// metric is one printed figure.
type metric struct {
	name  string
	value float64
	unit  string
}

func main() {
	wlName := flag.String("workload", "", "workload: hit, paper, exact or session")
	seed := flag.Int64("seed", 1, "seed the op list is generated from")
	seconds := flag.Int("seconds", 15, "nominal measured seconds; sizes the fixed op list")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass and an in-process replay")
	serverBin := flag.String("server", ".bench_build/bin/semiserve", "semiserve binary")
	outDir := flag.String("out", ".bench_build/runs", "directory for access logs and span files")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code := 0
	if err := run(ctx, *wlName, *seed, *seconds, *trace, *serverBin, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		code = 1
	}
	stop()
	os.Exit(code)
}

// errIncorrect marks a run whose result was printed with correct=false.
var errIncorrect = errors.New("some answers failed their checks")

// setups is the number of server launches per run: setup_s is their
// median, and the last server is the one measured.
const setups = 5

func run(ctx context.Context, wlName string, seed int64, seconds, trace int, serverBin, outDir string) error {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == wlName {
			wl = &workloads[i]
		}
	}
	switch {
	case wl == nil:
		return fmt.Errorf("unknown -workload %q (hit, paper, exact, session)", wlName)
	case seconds < 1 || (trace != 0 && trace != 1):
		return errors.New("-seconds must be positive and -trace 0 or 1")
	}
	if _, err := os.Stat(serverBin); err != nil {
		return fmt.Errorf("server binary: %w", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}

	n := max(wl.minOps, int(math.Round(wl.rate*float64(seconds))))
	p, err := wl.plan(seed, n)
	if err != nil {
		return fmt.Errorf("generate %s op list: %w", wl.name, err)
	}

	// Set-up: launch → /healthz → warm-up, several times; the last server
	// stays up for the measured pass.
	var srv *server
	var refs map[int]*primed
	setupS := make([]float64, 0, setups)
	for i := 0; i < setups; i++ {
		if srv != nil {
			srv.stop()
		}
		var took time.Duration
		srv, refs, took, err = setUp(ctx, p, serverBin, filepath.Join(outDir, fmt.Sprintf("access-%s-%d.log", wl.name, i)), trace == 1)
		if err != nil {
			return err
		}
		setupS = append(setupS, took.Seconds())
	}
	defer srv.stop()

	pass, err := measure(ctx, srv, p.ops, trace == 1)
	srv.stop()
	if err != nil {
		return err
	}
	q := checkAll(p, p.ops, pass.results, refs)
	fails := countFailures(pass.results)
	shown := 0
	for i := range pass.results {
		if r := &pass.results[i]; r.failed && shown < 5 {
			fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", i, r.err)
			shown++
		}
	}
	if err := guard(wl.name, pass, p.ops); err != nil {
		return fmt.Errorf("workload guard: %w", err)
	}
	sum, err := summarize(pass.results, wl.limitMs)
	if err != nil {
		return err
	}

	var metrics []metric
	if trace == 0 {
		metrics = endToEnd(pass, sum, q, median(setupS))
	} else {
		rp, err := replay(ctx, wl.name, p, filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.ndjson", wl.name, seed)))
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		metrics = perLayer(wl.name, pass, sum, rp)
	}
	correct := fails.total == 0
	printResult(os.Stdout, wl.name, seed, len(p.ops), fails, metrics, correct)
	if !correct {
		return errIncorrect
	}
	return nil
}

// setUp launches a server, waits for /healthz and runs the warm-up ops,
// timing the whole. For the hit workload it returns the primed answers.
// A traced run's server logs its garbage collections.
func setUp(ctx context.Context, p *plan, bin, logPath string, traced bool) (*server, map[int]*primed, time.Duration, error) {
	start := time.Now()
	srv, err := startServer(ctx, bin, logPath, traced)
	if err != nil {
		return nil, nil, 0, err
	}
	c := newClient()
	if err := srv.waitHealthy(ctx, c); err != nil {
		srv.stop()
		return nil, nil, 0, err
	}
	res, err := newDriver(c, srv.base).run(ctx, p.warm)
	took := time.Since(start)
	if err != nil {
		srv.stop()
		return nil, nil, 0, err
	}
	var refs map[int]*primed
	if p.primeCount > 0 {
		refs = make(map[int]*primed)
	}
	for i := range res {
		o := &p.warm[i]
		if res[i].failed {
			srv.stop()
			return nil, nil, 0, fmt.Errorf("warm-up op %d: %v", i, res[i].err)
		}
		if o.kind != opSolve {
			continue
		}
		sr, chosen, err := checkSolve(p, o, res[i].body)
		if err != nil {
			srv.stop()
			return nil, nil, 0, fmt.Errorf("warm-up op %d: %w", i, err)
		}
		if i < p.primeCount {
			refs[o.inst] = &primed{makespan: sr.Makespan, chosen: chosen}
		}
	}
	return srv, refs, took, nil
}

// passResult is one measured pass over the op list.
type passResult struct {
	results []result
	wallS   float64
	cpuS    float64
	rssB    int64
	delta   promDelta
	gcs     int // server garbage collections in the window (traced runs)
}

// measure drives ops against srv between two /metrics scrapes and two
// /proc reads (and, traced, two reads of the server's GC log). The
// client's own garbage collector is held off during the pass so it does
// not compete with the server for CPU.
func measure(ctx context.Context, srv *server, ops []op, traced bool) (*passResult, error) {
	c := newClient()
	d := newDriver(c, srv.base)
	before, err := srv.scrape(c)
	if err != nil {
		return nil, err
	}
	var gc0 int
	if traced {
		if gc0, err = srv.gcCycles(); err != nil {
			return nil, err
		}
	}
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	prevLimit := debug.SetMemoryLimit(int64(ms.Sys) + 512<<20)
	prevGC := debug.SetGCPercent(-1)
	start := time.Now()
	results, err := d.run(ctx, ops)
	wall := time.Since(start)
	debug.SetGCPercent(prevGC)
	debug.SetMemoryLimit(prevLimit)
	if err != nil {
		return nil, err
	}
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	after, err := srv.scrape(c)
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSS()
	if err != nil {
		return nil, err
	}
	pass := &passResult{
		results: results, wallS: wall.Seconds(), cpuS: cpu1 - cpu0, rssB: rss,
		delta: deltaOf(before, after),
	}
	if traced {
		gc1, err := srv.gcCycles()
		if err != nil {
			return nil, err
		}
		pass.gcs = gc1 - gc0
	}
	return pass, nil
}

// failureCounts tallies failed ops by cause.
type failureCounts struct {
	total  int
	byCode map[string]int
}

func countFailures(results []result) failureCounts {
	f := failureCounts{byCode: make(map[string]int)}
	for _, r := range results {
		if !r.failed {
			continue
		}
		f.total++
		switch {
		case r.code == 0:
			f.byCode["transport"]++
		case r.code == 429 || r.code == 504:
			f.byCode[fmt.Sprint(r.code)]++
		case r.code >= 500:
			f.byCode["5xx"]++
		case r.code >= 400:
			f.byCode["4xx"]++
		default:
			f.byCode["check"]++
		}
	}
	return f
}

// guard checks from the server's own counters that the window did the
// work the workload is defined by, so turning hits into solves (or the
// reverse) cannot pass as a speed change.
func guard(wl string, pass *passResult, ops []op) error {
	d := pass.delta
	requests := d.counter("semimatch_requests_total")
	hits := d.counter("semimatch_cache_hits_total")
	solves := d.counter("semimatch_solves_total")
	n := float64(len(ops))
	switch wl {
	case "hit":
		if requests != n || hits != n || solves != 0 {
			return fmt.Errorf("hit: %v requests, %v cache hits, %v solves in the window; want %v, %v, 0", requests, hits, solves, n, n)
		}
	case "paper", "exact":
		if requests != n || hits != 0 || solves != n {
			return fmt.Errorf("%s: %v requests, %v cache hits, %v solves in the window; want %v, 0, %v", wl, requests, hits, solves, n, n)
		}
	case "session":
		events := d.counter("semimatch_session_events_total")
		_, resolves := d.histMean("semimatch_queue_wait_seconds")
		want := 0
		for i := range ops {
			if ops[i].kind == opSessionEvent {
				want++
			}
		}
		if events != float64(want) || resolves*2 < events {
			return fmt.Errorf("session: %v events and %v re-solves in the window; want %d events, most re-solved", events, resolves, want)
		}
	}
	return nil
}

// endToEnd is the untraced run's metrics.
func endToEnd(pass *passResult, s latencySummary, q quality, setupS float64) []metric {
	return []metric{
		{"latency_p50_ms", s.p50, "ms"},
		{"latency_p90_ms", s.p90, "ms"},
		{"throughput_ops_s", float64(s.ok) / pass.wallS, "ops/s"},
		{"cpu_ms_per_op", pass.cpuS * 1000 / float64(s.attempted), "ms"},
		{"slo_attainment", ratio(float64(s.withinLimit), float64(s.attempted)), "share"},
		{"success_share", ratio(float64(s.ok), float64(s.attempted)), "share"},
		{"server_rss_mb", float64(pass.rssB) / (1 << 20), "MiB"},
		{"makespan_over_lb", q.ratioSum / float64(max(q.ratios, 1)), "ratio"},
		{"optimal_share", ratio(float64(q.optimal), float64(q.schedules)), "share"},
		{"setup_s", setupS, "s"},
	}
}

// printResult prints the human-readable table and, last, the one-line
// JSON result.
func printResult(w *os.File, wl string, seed int64, attempted int, f failureCounts, metrics []metric, correct bool) {
	fmt.Fprintf(w, "workload %s seed %d: %d ops, %d failed", wl, seed, attempted, f.total)
	codes := make([]string, 0, len(f.byCode))
	for c := range f.byCode {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	for _, c := range codes {
		fmt.Fprintf(w, ", %s=%d", c, f.byCode[c])
	}
	fmt.Fprintln(w)
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{correct, attempted, f.total, make(map[string]val, len(metrics))}
	for _, m := range metrics {
		fmt.Fprintf(w, "  %-28s %16.6g %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = val{m.value, m.unit}
	}
	line, _ := json.Marshal(out) // plain structs and finite floats: cannot fail
	fmt.Fprintln(w, string(line))
}
