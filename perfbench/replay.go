package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"semimatch/internal/bipartite"
	"semimatch/internal/cert"
	"semimatch/internal/encode"
	"semimatch/internal/exact"
	"semimatch/internal/hypergraph"
	"semimatch/internal/service"
	"semimatch/internal/session"
	"semimatch/internal/solve"
)

// The traced replay runs a workload's op list in process through the
// public functions the server calls, one span per call. Work that a
// layer does inside another layer's call cannot be timed from outside,
// so it is re-run on the same input right after and recorded as a
// "retimed" child of the span that contains it: a layer's self time is
// its span minus its children, retimed ones included.

// span is one timed call.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for an op's top-level span
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the replay began
	EndNs   int64  `json:"end_ns"`
	Allocs  uint64 `json:"allocs"`
	Bytes   uint64 `json:"bytes"`
	GCs     uint32 `json:"gcs"`
	Retimed bool   `json:"retimed,omitempty"`
}

func (s *span) ms() float64 { return float64(s.EndNs-s.StartNs) / 1e6 }

// tracer records spans in memory. Allocation counts are runtime.MemStats
// deltas around each call, which is exact because the replay runs one
// goroutine at a time.
type tracer struct {
	t0    time.Time
	spans []span
	ms    runtime.MemStats
}

// open starts a span and returns its index; close ends it.
func (tr *tracer) open(op, parent int, name string, retimed bool) int {
	tr.spans = append(tr.spans, span{ID: len(tr.spans), Parent: parent, Op: op, Name: name, Retimed: retimed})
	s := &tr.spans[len(tr.spans)-1]
	runtime.ReadMemStats(&tr.ms)
	s.Allocs, s.Bytes, s.GCs = tr.ms.Mallocs, tr.ms.TotalAlloc, tr.ms.NumGC
	s.StartNs = time.Since(tr.t0).Nanoseconds()
	return s.ID
}

func (tr *tracer) close(id int) {
	end := time.Since(tr.t0).Nanoseconds()
	runtime.ReadMemStats(&tr.ms)
	s := &tr.spans[id]
	s.EndNs = end
	s.Allocs = tr.ms.Mallocs - s.Allocs
	s.Bytes = tr.ms.TotalAlloc - s.Bytes
	s.GCs = tr.ms.NumGC - s.GCs
}

// call wraps fn in a span.
func (tr *tracer) call(op, parent int, name string, retimed bool, fn func() error) (int, error) {
	id := tr.open(op, parent, name, retimed)
	err := fn()
	tr.close(id)
	return id, err
}

// write emits the spans as NDJSON.
func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range tr.spans {
		if err := enc.Encode(&tr.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayStats is what the per-layer metrics need beyond the spans.
type replayStats struct {
	tr    *tracer
	ops   int // ops replayed (top-level spans)
	nodes int64
	// Session outcomes.
	events, adopted, migrations int
	warmNodes                   int64
}

// serviceOptions mirrors semiserve's defaults: a 10 s default deadline,
// everything else the service's own defaults.
var serviceOptions = service.Options{DefaultDeadline: 10 * time.Second}

// solverWorkers is the per-solve worker budget the service derives at
// its default width: GOMAXPROCS split over GOMAXPROCS solve slots.
const solverWorkers = 1

// parseBody is the server's parse of a text-format body: detect the
// kind, then read it.
func parseBody(body []byte) (any, error) {
	kind, err := encode.DetectKind(body)
	if err != nil {
		return nil, err
	}
	if kind == "hypergraph" {
		return encode.ReadHypergraph(bytes.NewReader(body))
	}
	return encode.ReadBipartite(bytes.NewReader(body))
}

// replay runs the workload's ops in process and writes the spans to
// spansPath.
func replay(ctx context.Context, wl string, p *plan, spansPath string) (*replayStats, error) {
	rs := &replayStats{tr: &tracer{t0: time.Now()}}
	var err error
	if wl == "session" {
		err = replaySessions(ctx, p, rs)
	} else {
		err = replaySolves(ctx, wl, p, rs)
	}
	if err != nil {
		return nil, err
	}
	return rs, rs.tr.write(spansPath)
}

// replaySolves replays POST /solve ops: parse, then Service.Solve on a
// service warmed with the warm-up ops, then — retimed — the canonical
// form, the fingerprint and, for fresh solves, the solve, its exact
// search, certificate issue and verification.
func replaySolves(ctx context.Context, wl string, p *plan, rs *replayStats) error {
	svc := service.New(serviceOptions)
	defer svc.Close()
	alg := ""
	if wl == "exact" {
		alg = "bnb"
	}
	for i := range p.warm {
		inst, err := parseBody(p.warm[i].body)
		if err != nil {
			return err
		}
		if _, err := svc.Solve(ctx, inst, alg); err != nil {
			return err
		}
	}
	tr := rs.tr
	for i := range p.ops {
		o := &p.ops[i]
		top := tr.open(i, -1, "op", false)
		var inst any
		if _, err := tr.call(i, top, "encode.parse", false, func() (err error) {
			inst, err = parseBody(o.body)
			return err
		}); err != nil {
			return err
		}
		var res *service.Result
		svcSpan, err := tr.call(i, top, "service.solve", false, func() (err error) {
			res, err = svc.Solve(ctx, inst, alg)
			return err
		})
		tr.close(top)
		if err != nil {
			return err
		}
		if wantHit := wl == "hit"; res.Cached != wantHit {
			return fmt.Errorf("op %d: cached=%v in the replay", i, res.Cached)
		}
		rs.ops++

		var canon any
		if _, err := tr.call(i, svcSpan, "encode.canonicalize", true, func() (err error) {
			canon, err = canonical(inst)
			return err
		}); err != nil {
			return err
		}
		if _, err := tr.call(i, svcSpan, "encode.fingerprint", true, func() (err error) {
			_, err = fingerprint(canon)
			return err
		}); err != nil {
			return err
		}
		if res.Cached {
			continue
		}
		prob, err := solve.NewProblem(canon)
		if err != nil {
			return err
		}
		var rep *solve.Report
		runSpan, err := tr.call(i, svcSpan, "solve.run", true, func() (err error) {
			sctx, cancel := context.WithTimeout(ctx, serviceOptions.DefaultDeadline)
			defer cancel()
			rep, err = solve.RunOptions(sctx, prob, dispatchOptions(wl, canon))
			return err
		})
		if err != nil {
			return err
		}
		if wl == "exact" {
			var st exact.SearchStats
			if _, err := tr.call(i, runSpan, "exact.search", true, func() error {
				return exactSearch(ctx, canon, &st)
			}); err != nil {
				return err
			}
			rs.nodes += st.Nodes
		}
		if _, err := tr.call(i, runSpan, "cert.issue", true, func() error {
			cert.Issue(canon, rep.Assignment, rep.Makespan, rep.LowerBound,
				rep.Status == solve.StatusOptimal, rep.Stats.Nodes, rep.Solver)
			return nil
		}); err != nil {
			return err
		}
		if _, err := tr.call(i, svcSpan, "cert.verify", true, func() error {
			_, err := cert.Verify(canon, rep.Certificate)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// dispatchOptions is the solve the service runs for a fresh request: the
// batch policy's options for hypergraph auto, the resolved solver for
// bipartite auto, the named solver otherwise.
func dispatchOptions(wl string, canon any) solve.Options {
	if wl == "exact" {
		return solve.Options{Algorithm: "bnb", Workers: solverWorkers}
	}
	if g, ok := canon.(*bipartite.Graph); ok {
		name := "expected"
		if g.Unit() {
			name = "ExactUnit"
		}
		return solve.Options{Algorithm: name, Workers: solverWorkers}
	}
	return solve.Options{Workers: 1, ExactWorkers: solverWorkers, NodeBudget: solve.DefaultExactNodes}
}

func canonical(inst any) (any, error) {
	if h, ok := inst.(*hypergraph.Hypergraph); ok {
		c, _, err := encode.CanonicalHypergraph(h)
		return c, err
	}
	return encode.CanonicalBipartite(inst.(*bipartite.Graph))
}

func fingerprint(canon any) (string, error) {
	if h, ok := canon.(*hypergraph.Hypergraph); ok {
		return encode.FingerprintCanonicalHypergraph(h)
	}
	return encode.FingerprintCanonicalBipartite(canon.(*bipartite.Graph))
}

// exactSearch runs the sequential branch and bound the "bnb" solver
// wraps, with the registry's options.
func exactSearch(ctx context.Context, canon any, st *exact.SearchStats) error {
	opts := exact.Options{Workers: solverWorkers, Stats: st}
	var err error
	if h, ok := canon.(*hypergraph.Hypergraph); ok {
		_, _, err = exact.SolveMultiProcCtx(ctx, h, opts)
	} else {
		_, _, err = exact.SolveSingleProcCtx(ctx, canon.(*bipartite.Graph), opts)
	}
	return err
}

// sessionOptions is what semiserve builds from the session header: one
// worker per re-solve, no admission gate in process.
func sessionOptions() session.Options {
	o := sessionHeader.Options()
	o.Workers, o.ExactWorkers = 1, 1
	return o
}

// sessionSpans names the span of each session op.
var sessionSpans = map[opKind]string{
	opSessionCreate: "session.new",
	opSessionEvent:  "session.apply",
	opSessionDelete: "session.close",
}

// replaySessions replays the session ops: session.New per create, one
// Apply per event, Close per delete; the warm-up sessions run untraced.
func replaySessions(ctx context.Context, p *plan, rs *replayStats) error {
	live := make(map[int]*session.Session)
	do := func(i int, o *op, tr *tracer) error {
		var rep *session.SessionReport
		fn := func() (err error) {
			switch o.kind {
			case opSessionCreate:
				live[o.sess], err = session.New(sessionOptions())
			case opSessionEvent:
				rep, err = live[o.sess].Apply(ctx, *o.event)
			case opSessionDelete:
				live[o.sess].Close()
				delete(live, o.sess)
			}
			return err
		}
		if tr == nil {
			return fn()
		}
		if _, err := tr.call(i, -1, sessionSpans[o.kind], false, fn); err != nil {
			return err
		}
		rs.ops++
		if rep != nil {
			rs.events++
			if rep.Adopted {
				rs.adopted++
			}
			rs.migrations += rep.Migrations
			rs.warmNodes += rep.Nodes
		}
		return nil
	}
	for i := range p.warm {
		if err := do(i, &p.warm[i], nil); err != nil {
			return err
		}
	}
	for i := range p.ops {
		if err := do(i, &p.ops[i], rs.tr); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
	}
	return nil
}

// layerMean is one span name's mean duration, self time and allocation
// count.
type layerMean struct{ ms, selfMs, allocs float64 }

// layerMeans averages the spans by name.
func layerMeans(spans []span) map[string]layerMean {
	child := make([]float64, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			child[p] += spans[i].ms()
		}
	}
	sum := make(map[string]layerMean)
	n := make(map[string]float64)
	for i := range spans {
		s := &spans[i]
		m := sum[s.Name]
		m.ms += s.ms()
		m.selfMs += s.ms() - child[i]
		m.allocs += float64(s.Allocs)
		sum[s.Name] = m
		n[s.Name]++
	}
	for name, m := range sum {
		sum[name] = layerMean{m.ms / n[name], m.selfMs / n[name], m.allocs / n[name]}
	}
	return sum
}

// perLayer is the traced run's metrics: /metrics deltas, the server's GC
// count and client figures of the HTTP pass, then the replay's spans. A
// layer that does not run on a workload reads 0. Allocation volume comes
// from the replay; GC cycles from the server itself, because the
// replay's heap also holds the whole op list and so collects far less
// often than the server does.
func perLayer(wl string, pass *passResult, s latencySummary, rp *replayStats) []metric {
	d := pass.delta
	handlerS, _ := d.histMean("semimatch_http_request_seconds")
	queueS, _ := d.histMean("semimatch_queue_wait_seconds")
	var reqB, respB int
	for _, r := range pass.results {
		reqB += r.reqBytes
		respB += len(r.body)
	}
	mean := layerMeans(rp.tr.spans)

	// Top-level spans are what the server's handler does per op.
	var topMs, topBytes float64
	for i := range rp.tr.spans {
		if sp := &rp.tr.spans[i]; sp.Parent < 0 {
			topMs += sp.ms()
			topBytes += float64(sp.Bytes)
		}
	}
	ops := float64(max(rp.ops, 1))
	hitAllocs := 0.0
	if wl == "hit" {
		hitAllocs = mean["service.solve"].allocs
	}
	attempted := float64(max(s.attempted, 1))
	return []metric{
		{"semiserve.handler_ms", handlerS * 1000, "ms"},
		{"semiserve.transport_ms", s.meanMs - handlerS*1000, "ms"},
		{"semiserve.request_kb", float64(reqB) / 1024 / attempted, "KiB"},
		{"semiserve.response_kb", float64(respB) / 1024 / attempted, "KiB"},
		{"encode.parse_ms", mean["encode.parse"].ms, "ms"},
		{"encode.parse_allocs", mean["encode.parse"].allocs, "count"},
		{"encode.canonicalize_ms", mean["encode.canonicalize"].ms, "ms"},
		{"encode.canonicalize_allocs", mean["encode.canonicalize"].allocs, "count"},
		{"encode.fingerprint_ms", mean["encode.fingerprint"].ms, "ms"},
		{"encode.fingerprint_allocs", mean["encode.fingerprint"].allocs, "count"},
		{"service.solve_ms", mean["service.solve"].ms, "ms"},
		{"service.self_ms", mean["service.solve"].selfMs, "ms"},
		{"service.hit_allocs", hitAllocs, "count"},
		{"service.hit_share", ratio(d.counter("semimatch_cache_hits_total"), d.counter("semimatch_requests_total")), "share"},
		{"service.queue_wait_ms", queueS * 1000, "ms"},
		{"service.solves", d.counter("semimatch_solves_total"), "count"},
		{"service.failures", d.counter("semimatch_verify_failures_total") + d.counter("semimatch_overloaded_total") +
			d.counter("semimatch_solve_errors_total") + d.counter("semimatch_truncated_total"), "count"},
		{"solve.run_ms", mean["solve.run"].ms, "ms"},
		{"exact.nodes", float64(rp.nodes), "count"},
		{"exact.search_ms", mean["exact.search"].ms, "ms"},
		{"exact.nodes_per_s", ratio(float64(rp.nodes)/ops, mean["exact.search"].ms/1000), "1/s"},
		{"cert.issue_ms", mean["cert.issue"].ms, "ms"},
		{"cert.verify_ms", mean["cert.verify"].ms, "ms"},
		{"session.apply_ms", mean["session.apply"].ms, "ms"},
		{"session.apply_allocs", mean["session.apply"].allocs, "count"},
		{"session.warm_nodes", float64(rp.warmNodes), "count"},
		{"session.adopted_share", ratio(float64(rp.adopted), float64(rp.events)), "share"},
		{"session.migrations", float64(rp.migrations), "count"},
		{"runtime.alloc_kb_per_op", topBytes / 1024 / ops, "KiB"},
		{"runtime.gc_per_op", float64(pass.gcs) / attempted, "count"},
		{"trace.coverage", ratio(topMs/ops, handlerS*1000), "ratio"},
	}
}
