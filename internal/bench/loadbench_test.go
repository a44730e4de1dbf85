package bench

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"semimatch/internal/encode"
)

func TestParsePromCounters(t *testing.T) {
	text := `# HELP semimatch_requests_total total requests
# TYPE semimatch_requests_total counter
semimatch_requests_total 42
semimatch_cache_hits_total 7.0
semimatch_in_flight 3
semimatch_request_seconds_bucket{le="0.1"} 5
other_requests_total 99
semimatch_bad_total not-a-number
`
	got := parsePromCounters(text)
	want := map[string]float64{
		"semimatch_requests_total":   42,
		"semimatch_cache_hits_total": 7,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("parsed[%q] = %v, want %v", k, got[k], v)
		}
	}
}

func TestPercentileSorted(t *testing.T) {
	if v := percentileSorted(nil, 0.5); v != 0 {
		t.Fatalf("empty percentile = %v", v)
	}
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.50, 5}, {0.95, 10}, {0.99, 10}, {0.10, 1}, {1.0, 10}} {
		if v := percentileSorted(s, c.p); v != c.want {
			t.Fatalf("p%v = %v, want %v", c.p, v, c.want)
		}
	}
}

// TestIsoShufflePreservesFingerprint: the iso workload's whole premise
// is that a shuffled restatement still hashes to the same canonical
// fingerprint — otherwise "iso" traffic would be miss traffic.
func TestIsoShufflePreservesFingerprint(t *testing.T) {
	text, fp, err := loadInstanceText(loadHotFamily, 42)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	differed := false
	for i := 0; i < 8; i++ {
		iso := isoShuffle(text, rng)
		hi, err := encode.ReadHypergraph(strings.NewReader(iso))
		if err != nil {
			t.Fatalf("shuffle %d produced unreadable text: %v\n%s", i, err, iso)
		}
		fpi, err := encode.FingerprintHypergraph(hi)
		if err != nil {
			t.Fatal(err)
		}
		if fpi != fp {
			t.Fatalf("shuffle %d changed the fingerprint", i)
		}
		if iso != text {
			differed = true
		}
	}
	if !differed {
		t.Fatal("8 shuffles never changed the byte order")
	}
}

// TestRunLoadFakeServer exercises the full measurement loop against a
// stub /solve + /metrics server: request accounting, tier counts,
// percentile ordering, and the /metrics before/after counter deltas.
func TestRunLoadFakeServer(t *testing.T) {
	var requests atomic.Uint64
	mux := http.NewServeMux()
	mux.HandleFunc("/solve", func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"cache_tier":"memory","truncated":false}`)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "# TYPE semimatch_requests_total counter\nsemimatch_requests_total %d\nsemimatch_in_flight 1\n", requests.Load())
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	rep, err := RunLoad(context.Background(), LoadOptions{
		Targets:      []string{ts.URL + "/"}, // trailing slash must normalize away
		Duration:     300 * time.Millisecond,
		Concurrency:  4,
		Seed:         3,
		HotInstances: 2,
		Mix:          LoadMix{RepeatPct: 50, IsoPct: 30, MissPct: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != LoadSchema {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if rep.Requests == 0 || rep.QPS <= 0 {
		t.Fatalf("no load measured: %+v", rep)
	}
	if rep.Errors != 0 || rep.Shed != 0 {
		t.Fatalf("errors=%d shed=%d against an always-200 server", rep.Errors, rep.Shed)
	}
	if rep.Warmup != 2 {
		t.Fatalf("warmup = %d, want 2", rep.Warmup)
	}
	if rep.Tiers["memory"] != rep.Requests {
		t.Fatalf("tiers %v vs %d requests", rep.Tiers, rep.Requests)
	}
	if rep.CacheHitRate != 1 {
		t.Fatalf("cache hit rate = %v, want 1", rep.CacheHitRate)
	}
	if rep.P50Ms <= 0 || rep.P50Ms > rep.P95Ms || rep.P95Ms > rep.P99Ms {
		t.Fatalf("percentiles out of order: p50=%v p95=%v p99=%v", rep.P50Ms, rep.P95Ms, rep.P99Ms)
	}
	var total uint64
	for _, n := range rep.Workloads {
		total += n
	}
	if total != rep.Requests {
		t.Fatalf("workload counts %v don't sum to %d", rep.Workloads, rep.Requests)
	}
	if rep.Workloads["long"] != 0 {
		t.Fatalf("long workload ran with weight 0: %v", rep.Workloads)
	}
	if len(rep.TargetMetrics) != 1 {
		t.Fatalf("target metrics: %+v", rep.TargetMetrics)
	}
	tm := rep.TargetMetrics[0]
	if tm.ScrapeError != "" {
		t.Fatalf("scrape error: %s", tm.ScrapeError)
	}
	// Warmup happens before the "before" scrape, so the delta counts
	// exactly the measured-window requests.
	if d := tm.Deltas["semimatch_requests_total"]; d != float64(rep.Requests) {
		t.Fatalf("requests delta = %v, want %d", d, rep.Requests)
	}
}

func TestRunLoadValidation(t *testing.T) {
	if _, err := RunLoad(context.Background(), LoadOptions{}); err == nil {
		t.Fatal("no targets accepted")
	}
	if _, err := RunLoad(context.Background(), LoadOptions{Targets: []string{"http://x", " "}}); err == nil {
		t.Fatal("blank target accepted")
	}
}

// TestRunLoadCanceledContext: a canceled context stops the workers
// promptly instead of running out the full duration.
func TestRunLoadCanceledContext(t *testing.T) {
	var requests atomic.Uint64
	mux := http.NewServeMux()
	mux.HandleFunc("/solve", func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		fmt.Fprint(w, `{"cache_tier":"none"}`)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "semimatch_requests_total 0\n")
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	rep, err := RunLoad(ctx, LoadOptions{
		Targets:      []string{ts.URL},
		Duration:     time.Hour,
		Concurrency:  2,
		HotInstances: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 30*time.Second {
		t.Fatal("canceled run did not stop promptly")
	}
	if rep.Requests != 0 {
		t.Fatalf("canceled run issued %d measured requests", rep.Requests)
	}
}

// TestRunLoadByStatus: non-200 responses are tallied by status code, the
// 429s match Shed, the rest match Errors, and the text summary lists
// each code.
func TestRunLoadByStatus(t *testing.T) {
	codes := []int{http.StatusOK, http.StatusTooManyRequests, http.StatusGatewayTimeout, http.StatusOK, http.StatusInternalServerError}
	var requests atomic.Uint64
	mux := http.NewServeMux()
	mux.HandleFunc("/solve", func(w http.ResponseWriter, r *http.Request) {
		code := codes[int(requests.Add(1)-1)%len(codes)]
		w.WriteHeader(code)
		if code == http.StatusOK {
			fmt.Fprint(w, `{"cache_tier":"memory","truncated":false}`)
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "semimatch_requests_total 0\n")
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	rep, err := RunLoad(context.Background(), LoadOptions{
		Targets:      []string{ts.URL},
		Duration:     200 * time.Millisecond,
		Concurrency:  2,
		Seed:         5,
		HotInstances: 1,
		Mix:          LoadMix{RepeatPct: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests < uint64(len(codes)) {
		t.Fatalf("only %d requests measured", rep.Requests)
	}
	if rep.ByStatus["429"] != rep.Shed || rep.Shed == 0 {
		t.Fatalf("by_status 429 = %d, shed = %d", rep.ByStatus["429"], rep.Shed)
	}
	if got := rep.ByStatus["500"] + rep.ByStatus["504"]; got != rep.Errors || rep.ByStatus["504"] == 0 {
		t.Fatalf("by_status %v vs errors %d", rep.ByStatus, rep.Errors)
	}
	if _, ok := rep.ByStatus["200"]; ok || len(rep.ByStatus) != 3 {
		t.Fatalf("by_status %v, want exactly 429, 500 and 504", rep.ByStatus)
	}
	if sum := rep.Tiers["memory"] + rep.Shed + rep.Errors; sum != rep.Requests {
		t.Fatalf("200s %d + shed %d + errors %d != %d requests", rep.Tiers["memory"], rep.Shed, rep.Errors, rep.Requests)
	}
	if s := FormatLoadSummary(rep); !strings.Contains(s, "non-200 by status: 429 ") || !strings.Contains(s, " 504 ") {
		t.Fatalf("summary lacks the status breakdown:\n%s", s)
	}
}
