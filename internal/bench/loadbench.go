// Service-level load generation: the semiload engine.
//
// RunLoad drives a seeded mixed workload against one or more running
// semiserve processes and records the service-perf trajectory the
// node-count grid cannot see: sustained QPS, latency percentiles, cache
// and peer hit rates, and load shedding under concurrency. The report
// rides inside BENCH_<n>.json as the "loadbench" section (its own
// schema, "semimatch-loadbench/v1") so the serving numbers are versioned
// next to the solver numbers they depend on.
package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"semimatch/internal/cluster"
	"semimatch/internal/encode"
	"semimatch/internal/registry"
)

// LoadSchema versions the loadbench section of BENCH.json.
const LoadSchema = "semimatch-loadbench/v1"

// LoadMix weighs the four workloads of a run. The weights are relative
// (they need not sum to 100); a zero-valued mix means DefaultLoadMix.
type LoadMix struct {
	// RepeatPct posts a byte-identical repeat of a warm instance —
	// memory hits on the replica that solved it, peer hits elsewhere.
	RepeatPct int `json:"repeat_pct"`
	// IsoPct posts a freshly shuffled isomorphic restatement of a warm
	// instance — same fingerprint, different bytes; exercises
	// canonicalization on every request.
	IsoPct int `json:"iso_pct"`
	// MissPct posts a never-seen instance. All workers in one "wave"
	// post the same new instance concurrently, so misses arrive as
	// coalescable bursts, the way a cache stampede does.
	MissPct int `json:"miss_pct"`
	// LongPct posts a hard exact-solver instance under a tight
	// ?deadline, producing deadline-truncated (never cached) solves.
	LongPct int `json:"long_pct"`
}

// DefaultLoadMix is a cache-friendly service profile: mostly repeats
// and isomorphs, a steady trickle of misses, a few truncated long jobs.
var DefaultLoadMix = LoadMix{RepeatPct: 55, IsoPct: 20, MissPct: 20, LongPct: 5}

func (m LoadMix) sum() int { return m.RepeatPct + m.IsoPct + m.MissPct + m.LongPct }

// LoadOptions configures RunLoad.
type LoadOptions struct {
	// Targets are the base URLs of the processes under load (at least
	// one). Requests pick a target uniformly at random, so a multi-
	// process fleet sees every workload from every side.
	Targets []string
	// Duration is the measured window; 0 means 5s.
	Duration time.Duration
	// Concurrency is the number of closed-loop workers; 0 means 8.
	Concurrency int
	// Seed makes the workload reproducible; 0 means 1.
	Seed int64
	// Mix weighs the workloads; zero-valued means DefaultLoadMix.
	Mix LoadMix
	// HotInstances is the size of the warm working set the repeat/iso
	// workloads draw from; 0 means 8.
	HotInstances int
	// LongDeadline is the ?deadline the long workload requests; 0 means
	// 200ms.
	LongDeadline time.Duration
}

func (o LoadOptions) duration() time.Duration {
	if o.Duration > 0 {
		return o.Duration
	}
	return 5 * time.Second
}

func (o LoadOptions) concurrency() int {
	if o.Concurrency > 0 {
		return o.Concurrency
	}
	return 8
}

func (o LoadOptions) seed() int64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return 1
}

func (o LoadOptions) mix() LoadMix {
	if o.Mix.sum() > 0 {
		return o.Mix
	}
	return DefaultLoadMix
}

func (o LoadOptions) hotInstances() int {
	if o.HotInstances > 0 {
		return o.HotInstances
	}
	return 8
}

func (o LoadOptions) longDeadline() time.Duration {
	if o.LongDeadline > 0 {
		return o.LongDeadline
	}
	return 200 * time.Millisecond
}

// LoadTargetMetrics is one target's /metrics counter movement over the
// measured window: after minus before, counters (semimatch_*_total)
// only. This is where cross-replica traffic shows up — a fleet run is
// healthy when some replica's semimatch_peer_hits_total delta is
// nonzero.
type LoadTargetMetrics struct {
	URL string `json:"url"`
	// Deltas maps metric family name to its increase over the run.
	// Zero-delta families are omitted.
	Deltas map[string]float64 `json:"deltas,omitempty"`
	// ScrapeError records a failed /metrics scrape; Deltas is then nil.
	ScrapeError string `json:"scrape_error,omitempty"`
}

// LoadReport is the result of one RunLoad — the "loadbench" section of
// BENCH.json.
type LoadReport struct {
	Schema      string   `json:"schema"`
	Created     string   `json:"created"`
	Targets     []string `json:"targets"`
	Concurrency int      `json:"concurrency"`
	Seed        int64    `json:"seed"`
	Mix         LoadMix  `json:"mix"`
	// Warmup is the number of priming solves issued before the clock
	// started (one per hot instance); excluded from every number below.
	Warmup    int     `json:"warmup"`
	DurationS float64 `json:"duration_s"`
	Requests  uint64  `json:"requests"`
	// Errors are transport failures and non-2xx non-429 responses.
	Errors uint64 `json:"errors"`
	// Shed counts 429 responses (admission queue full / inflight cap).
	Shed uint64 `json:"shed"`
	// ByStatus counts non-200 HTTP responses by status code ("429",
	// "504", ...): Shed is ByStatus["429"], and the other codes plus
	// transport failures make up Errors.
	ByStatus map[string]uint64 `json:"by_status"`
	// Truncated counts responses with "truncated": true.
	Truncated uint64  `json:"truncated"`
	QPS       float64 `json:"qps"`
	P50Ms     float64 `json:"latency_p50_ms"`
	P95Ms     float64 `json:"latency_p95_ms"`
	P99Ms     float64 `json:"latency_p99_ms"`
	// Tiers counts 200 responses by cache_tier ("none" = fresh solve;
	// "memory", "disk", "peer" = the tier that answered).
	Tiers map[string]uint64 `json:"tiers"`
	// Workloads counts issued requests by workload name.
	Workloads map[string]uint64 `json:"workloads"`
	// CacheHitRate is (memory+disk+peer)/OK; PeerHitRate is peer/OK.
	CacheHitRate float64 `json:"cache_hit_rate"`
	PeerHitRate  float64 `json:"peer_hit_rate"`
	// TargetMetrics is the per-process /metrics counter movement.
	TargetMetrics []LoadTargetMetrics `json:"target_metrics"`
}

// loadHotFamily generates the warm working set: small restricted-random
// hypergraphs the auto policy solves exactly in well under a
// millisecond, so cache behavior — not solver wall time — dominates.
var loadHotFamily = PerfFamily{
	Name: "load-hot", Class: registry.MultiProc, Shape: "random",
	NTasks: 12, NProcs: 4, WMin: 1, WMax: 40, Degree: 3, MaxEdgeSize: 2,
}

// loadLongFamily generates the long workload: the perf grid's hard
// partition shape, which the exact solver cannot finish inside the
// tight deadline the workload requests — a guaranteed truncation.
var loadLongFamily = PerfFamily{
	Name: "load-long", Class: registry.MultiProc, Shape: "partition",
	NTasks: 25, NProcs: 4, WMin: 20, WMax: 80,
}

// loadInstanceText renders one generated instance in the text format
// POST /solve accepts, along with its canonical fingerprint — the key
// the fleet routes by.
func loadInstanceText(f PerfFamily, seed int64) (text, fp string, err error) {
	h, err := perfHyper(f, seed)
	if err != nil {
		return "", "", err
	}
	var sb strings.Builder
	if err := encode.WriteHypergraph(&sb, h); err != nil {
		return "", "", err
	}
	fp, err = encode.FingerprintHypergraph(h)
	if err != nil {
		return "", "", err
	}
	return sb.String(), fp, nil
}

// isoShuffle returns an isomorphic restatement of a text-format
// hypergraph: the same instance with each task's configuration lines in
// a fresh order. The canonical fingerprint is unchanged by
// construction, so the server must answer it from cache.
func isoShuffle(text string, rng *rand.Rand) string {
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) < 2 {
		return text
	}
	var sb strings.Builder
	sb.WriteString(lines[0])
	sb.WriteByte('\n')
	// Shuffle within each task's block, preserving the task-grouped
	// order the format requires.
	block := func(start, end int) {
		perm := rng.Perm(end - start)
		for _, j := range perm {
			sb.WriteString(lines[start+j])
			sb.WriteByte('\n')
		}
	}
	start := 1
	for i := 2; i <= len(lines); i++ {
		if i == len(lines) || taskOf(lines[i]) != taskOf(lines[start]) {
			block(start, i)
			start = i
		}
	}
	return sb.String()
}

func taskOf(edgeLine string) string {
	if i := strings.IndexByte(edgeLine, ' '); i > 0 {
		return edgeLine[:i]
	}
	return edgeLine
}

// loadWorkloads is the fixed workload order; weights come from LoadMix.
var loadWorkloads = []string{"repeat", "iso", "miss", "long"}

// loadWorker is one closed-loop client's tally, merged after the run.
type loadWorker struct {
	latenciesMs []float64
	tiers       map[string]uint64
	workloads   map[string]uint64
	byStatus    map[string]uint64
	requests    uint64
	errors      uint64
	shed        uint64
	truncated   uint64
}

// RunLoad drives the configured workload mix against o.Targets until
// the duration elapses (or ctx is canceled, whichever is first) and
// returns the measured report. The same options and seed replay the
// same request sequence.
func RunLoad(ctx context.Context, o LoadOptions) (*LoadReport, error) {
	if len(o.Targets) == 0 {
		return nil, errors.New("bench: loadgen needs at least one target URL")
	}
	targets := make([]string, len(o.Targets))
	for i, t := range o.Targets {
		targets[i] = strings.TrimRight(strings.TrimSpace(t), "/")
		if targets[i] == "" {
			return nil, fmt.Errorf("bench: empty target URL at position %d", i)
		}
	}
	mix := o.mix()
	weights := []int{mix.RepeatPct, mix.IsoPct, mix.MissPct, mix.LongPct}
	seed := o.seed()
	conc := o.concurrency()

	// The warm working set: generated once, solved once up front so the
	// repeat/iso workloads measure cache behavior, not first-solve cost.
	hot := make([]string, o.hotInstances())
	hotFP := make([]string, len(hot))
	for i := range hot {
		text, fp, err := loadInstanceText(loadHotFamily, seed*1009+int64(i))
		if err != nil {
			return nil, err
		}
		hot[i], hotFP[i] = text, fp
	}
	long := make([]string, 4)
	for i := range long {
		text, _, err := loadInstanceText(loadLongFamily, seed*1013+int64(i))
		if err != nil {
			return nil, err
		}
		long[i] = text
	}

	client := &http.Client{Timeout: 60 * time.Second}
	longQuery := "?alg=BnB-MP&deadline=" + o.longDeadline().String()

	// Against a fleet, each warmup solve is posted to the replica that
	// owns the instance's fingerprint — the replica peers will ask — by
	// building the same rendezvous ring the fleet routes by. Targets
	// that don't form a valid ring (or a single target) just warm
	// round-robin; peering degrades to a first-request fresh solve, not
	// an error.
	warmTarget := func(i int) string { return targets[i%len(targets)] }
	if len(targets) > 1 {
		if ring, err := cluster.NewRing(targets[0], targets); err == nil {
			asGiven := make(map[string]string, len(targets))
			for _, tgt := range targets {
				if n, err := cluster.NormalizePeer(tgt); err == nil {
					asGiven[n] = tgt
				}
			}
			warmTarget = func(i int) string {
				if tgt, ok := asGiven[ring.Owner(hotFP[i])]; ok {
					return tgt
				}
				return targets[i%len(targets)]
			}
		}
	}
	for i, body := range hot {
		code, _, _, err := loadPost(client, warmTarget(i)+"/solve", body)
		if err != nil {
			return nil, fmt.Errorf("bench: warmup against %s: %w", warmTarget(i), err)
		}
		if code != http.StatusOK {
			return nil, fmt.Errorf("bench: warmup solve returned HTTP %d", code)
		}
	}

	before := make([]map[string]float64, len(targets))
	beforeErr := make([]error, len(targets))
	for i, t := range targets {
		before[i], beforeErr[i] = scrapeCounters(client, t)
	}

	// missWaveSize workers share each fresh instance, so misses arrive
	// as concurrent identical bursts the single-flight layer can
	// coalesce.
	missWaveSize := uint64(conc)
	var missSeq atomic.Uint64

	start := time.Now()
	stop := start.Add(o.duration())
	var wg sync.WaitGroup
	workers := make([]*loadWorker, conc)
	for w := 0; w < conc; w++ {
		lw := &loadWorker{
			tiers:     make(map[string]uint64),
			workloads: make(map[string]uint64),
			byStatus:  make(map[string]uint64),
		}
		workers[w] = lw
		rng := rand.New(rand.NewSource(seed + int64(w)*7919))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) && ctx.Err() == nil {
				name := pickWeighted(rng, weights)
				var body, query string
				switch name {
				case "repeat":
					body = hot[rng.Intn(len(hot))]
				case "iso":
					body = isoShuffle(hot[rng.Intn(len(hot))], rng)
				case "miss":
					wave := missSeq.Add(1) / missWaveSize
					text, _, err := loadInstanceText(loadHotFamily, seed*1021+int64(wave)+1_000_000)
					if err != nil {
						lw.errors++
						continue
					}
					body = text
				case "long":
					body = long[rng.Intn(len(long))]
					query = longQuery
				}
				url := targets[rng.Intn(len(targets))] + "/solve" + query
				t0 := time.Now()
				code, tier, truncated, err := loadPost(client, url, body)
				lw.latenciesMs = append(lw.latenciesMs, float64(time.Since(t0).Microseconds())/1000)
				lw.requests++
				lw.workloads[name]++
				switch {
				case err != nil:
					lw.errors++
				case code == http.StatusOK:
					lw.tiers[tier]++
					if truncated {
						lw.truncated++
					}
				default:
					lw.byStatus[strconv.Itoa(code)]++
					if code == http.StatusTooManyRequests {
						lw.shed++
					} else {
						lw.errors++
					}
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &LoadReport{
		Schema:      LoadSchema,
		Created:     time.Now().UTC().Format(time.RFC3339),
		Targets:     targets,
		Concurrency: conc,
		Seed:        seed,
		Mix:         mix,
		Warmup:      len(hot),
		DurationS:   elapsed.Seconds(),
		Tiers:       make(map[string]uint64),
		Workloads:   make(map[string]uint64),
		ByStatus:    make(map[string]uint64),
	}
	var latencies []float64
	for _, lw := range workers {
		rep.Requests += lw.requests
		rep.Errors += lw.errors
		rep.Shed += lw.shed
		rep.Truncated += lw.truncated
		for k, v := range lw.tiers {
			rep.Tiers[k] += v
		}
		for k, v := range lw.workloads {
			rep.Workloads[k] += v
		}
		for k, v := range lw.byStatus {
			rep.ByStatus[k] += v
		}
		latencies = append(latencies, lw.latenciesMs...)
	}
	sort.Float64s(latencies)
	rep.P50Ms = round3(percentileSorted(latencies, 0.50))
	rep.P95Ms = round3(percentileSorted(latencies, 0.95))
	rep.P99Ms = round3(percentileSorted(latencies, 0.99))
	if elapsed > 0 {
		rep.QPS = round3(float64(rep.Requests) / elapsed.Seconds())
	}
	ok := rep.Tiers["none"] + rep.Tiers["memory"] + rep.Tiers["disk"] + rep.Tiers["peer"]
	if ok > 0 {
		rep.CacheHitRate = round3(float64(rep.Tiers["memory"]+rep.Tiers["disk"]+rep.Tiers["peer"]) / float64(ok))
		rep.PeerHitRate = round3(float64(rep.Tiers["peer"]) / float64(ok))
	}

	for i, t := range targets {
		tm := LoadTargetMetrics{URL: t}
		after, err := scrapeCounters(client, t)
		switch {
		case beforeErr[i] != nil:
			tm.ScrapeError = beforeErr[i].Error()
		case err != nil:
			tm.ScrapeError = err.Error()
		default:
			tm.Deltas = make(map[string]float64)
			for name, v := range after {
				if d := v - before[i][name]; d != 0 {
					tm.Deltas[name] = d
				}
			}
		}
		rep.TargetMetrics = append(rep.TargetMetrics, tm)
	}
	return rep, nil
}

// pickWeighted draws a workload name by relative weight.
func pickWeighted(rng *rand.Rand, weights []int) string {
	total := 0
	for _, w := range weights {
		total += w
	}
	r := rng.Intn(total)
	for i, w := range weights {
		if r < w {
			return loadWorkloads[i]
		}
		r -= w
	}
	return loadWorkloads[len(loadWorkloads)-1]
}

// loadPost issues one solve request and reads just enough of the
// response to classify it.
func loadPost(client *http.Client, url, body string) (code int, tier string, truncated bool, err error) {
	resp, err := client.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		return 0, "", false, err
	}
	defer resp.Body.Close()
	var payload struct {
		CacheTier string `json:"cache_tier"`
		Truncated bool   `json:"truncated"`
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return resp.StatusCode, "", false, err
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &payload); err != nil {
			return resp.StatusCode, "", false, err
		}
	}
	return resp.StatusCode, payload.CacheTier, payload.Truncated, nil
}

// scrapeCounters fetches a target's /metrics and returns its plain
// (unlabeled) semimatch_*_total counter samples.
func scrapeCounters(client *http.Client, target string) (map[string]float64, error) {
	resp, err := client.Get(target + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return nil, err
	}
	return parsePromCounters(string(raw)), nil
}

// parsePromCounters extracts the plain counter samples from Prometheus
// text exposition format 0.0.4: "name value" lines whose name carries
// the semimatch_ prefix and _total suffix; labeled series (histogram
// buckets) and gauges are skipped.
func parsePromCounters(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.IndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		name := line[:i]
		if strings.ContainsRune(name, '{') ||
			!strings.HasPrefix(name, "semimatch_") || !strings.HasSuffix(name, "_total") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(line[i+1:]), 64)
		if err != nil {
			continue
		}
		out[name] = v
	}
	return out
}

// percentileSorted returns the p-quantile (0 < p <= 1) of an ascending
// sample by the nearest-rank method.
func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// FormatLoadSummary renders a LoadReport as a text table — the
// human-readable view of the loadbench section.
func FormatLoadSummary(rep *LoadReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "loadbench: %d targets, concurrency=%d, %.1fs, seed=%d\n",
		len(rep.Targets), rep.Concurrency, rep.DurationS, rep.Seed)
	fmt.Fprintf(&sb, "  requests %d (%.1f qps), errors %d, shed %d, truncated %d\n",
		rep.Requests, rep.QPS, rep.Errors, rep.Shed, rep.Truncated)
	if len(rep.ByStatus) > 0 {
		codes := make([]string, 0, len(rep.ByStatus))
		for code := range rep.ByStatus {
			codes = append(codes, code)
		}
		sort.Strings(codes)
		sb.WriteString("  non-200 by status:")
		for _, code := range codes {
			fmt.Fprintf(&sb, " %s %d", code, rep.ByStatus[code])
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "  latency ms: p50 %.3f  p95 %.3f  p99 %.3f\n", rep.P50Ms, rep.P95Ms, rep.P99Ms)
	fmt.Fprintf(&sb, "  tiers: none %d  memory %d  disk %d  peer %d  (cache hit rate %.1f%%, peer %.1f%%)\n",
		rep.Tiers["none"], rep.Tiers["memory"], rep.Tiers["disk"], rep.Tiers["peer"],
		100*rep.CacheHitRate, 100*rep.PeerHitRate)
	for _, tm := range rep.TargetMetrics {
		if tm.ScrapeError != "" {
			fmt.Fprintf(&sb, "  %s: metrics scrape failed: %s\n", tm.URL, tm.ScrapeError)
			continue
		}
		fmt.Fprintf(&sb, "  %s: solves %+.0f, cache hits %+.0f, peer hits %+.0f, peer served %+.0f, forwards %+.0f\n",
			tm.URL, tm.Deltas["semimatch_solves_total"], tm.Deltas["semimatch_cache_hits_total"],
			tm.Deltas["semimatch_peer_hits_total"], tm.Deltas["semimatch_peer_served_total"],
			tm.Deltas["semimatch_peer_forwards_total"])
	}
	return sb.String()
}
