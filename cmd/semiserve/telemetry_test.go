package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"semimatch/internal/service"
)

// metricFamilies is every family GET /metrics documents; the smoke test
// in CI greps for the same names.
var metricFamilies = []string{
	"semimatch_requests_total",
	"semimatch_cache_hits_total",
	"semimatch_cache_misses_total",
	"semimatch_cache_evictions_total",
	"semimatch_cache_entries",
	"semimatch_coalesced_total",
	"semimatch_solves_total",
	"semimatch_solve_errors_total",
	"semimatch_truncated_total",
	"semimatch_overloaded_total",
	"semimatch_verify_failures_total",
	"semimatch_disk_hits_total",
	"semimatch_disk_misses_total",
	"semimatch_disk_writes_total",
	"semimatch_disk_write_errors_total",
	"semimatch_disk_reaped_total",
	"semimatch_in_flight",
	"semimatch_search_nodes_total",
	"semimatch_search_nodes_per_second",
	"semimatch_ledger_errors_total",
	"semimatch_uptime_seconds",
	"semimatch_queue_wait_seconds",
	"semimatch_http_request_seconds",
	"semimatch_parse_seconds",
}

// TestMetricsEndpoint scrapes GET /metrics after real traffic: every
// documented family is present and well-formed Prometheus text, histogram
// buckets are cumulative (monotone), and the request histogram counted
// the traffic.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := startServer(t, service.Options{})
	if code, _, raw := postSolve(t, ts.URL+"/solve?alg=EVG", tinyHyper); code != http.StatusOK {
		t.Fatalf("solve: %d %s", code, raw)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()

	for _, fam := range metricFamilies {
		if !strings.Contains(text, "# HELP "+fam+" ") || !strings.Contains(text, "# TYPE "+fam+" ") {
			t.Errorf("missing HELP/TYPE for %s", fam)
		}
	}

	// Every non-comment line is `name[{labels}] value`, value parseable.
	typed := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			typed[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		val := line[sp+1:]
		if val != "+Inf" && val != "-Inf" && val != "NaN" {
			if _, err := strconv.ParseFloat(val, 64); err != nil {
				t.Fatalf("unparseable sample %q: %v", line, err)
			}
		}
	}
	for fam, typ := range typed {
		switch typ {
		case "counter", "gauge", "histogram":
		default:
			t.Errorf("family %s has unknown type %q", fam, typ)
		}
	}

	// The request histogram observed the traffic and its buckets are
	// cumulative.
	if !bucketSawTraffic(t, text, "semimatch_http_request_seconds") {
		t.Error("semimatch_http_request_seconds_count is zero after requests")
	}
	if !bucketSawTraffic(t, text, "semimatch_parse_seconds") {
		t.Error("semimatch_parse_seconds_count is zero after a parsed request")
	}
	if !bucketSawTraffic(t, text, "semimatch_queue_wait_seconds") {
		t.Error("semimatch_queue_wait_seconds_count is zero after a fresh solve")
	}
}

// bucketSawTraffic checks one histogram family's text: monotone
// cumulative buckets, the +Inf bucket equal to _count, and _count > 0.
func bucketSawTraffic(t *testing.T, text, fam string) bool {
	t.Helper()
	var prev uint64
	var last, count uint64
	var sawInf bool
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, fam+"_bucket{"):
			v, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				t.Fatalf("bad bucket line %q: %v", line, err)
			}
			if v < prev {
				t.Errorf("%s buckets not cumulative: %q after %d", fam, line, prev)
			}
			prev, last = v, v
			if strings.Contains(line, `le="+Inf"`) {
				sawInf = true
			}
		case strings.HasPrefix(line, fam+"_count "):
			c, err := strconv.ParseUint(strings.Fields(line)[1], 10, 64)
			if err != nil {
				t.Fatalf("bad count line %q: %v", line, err)
			}
			count = c
		}
	}
	if !sawInf {
		t.Errorf("%s has no +Inf bucket", fam)
	}
	if last != count {
		t.Errorf("%s +Inf bucket %d ≠ count %d", fam, last, count)
	}
	return count > 0
}

// TestRequestIDAndAccessLog: every response carries X-Request-Id, and the
// access log line for a solve records the id, algorithm, fingerprint
// prefix, cache tier and solve status.
func TestRequestIDAndAccessLog(t *testing.T) {
	var mu sync.Mutex
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(syncWriter{&mu, &logBuf}, nil))
	svc := service.New(service.Options{})
	ts := httptest.NewServer(newServer(svc, serverConfig{logger: logger}))
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/solve?alg=EVG", "text/plain", strings.NewReader(tinyHyper))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Request-Id")
	if len(id) != 16 {
		t.Fatalf("X-Request-Id = %q, want 16 hex chars", id)
	}
	// A second, distinct request gets a distinct id.
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if id2 := resp2.Header.Get("X-Request-Id"); id2 == "" || id2 == id {
		t.Fatalf("second request id %q vs first %q", id2, id)
	}

	mu.Lock()
	logs := logBuf.String()
	mu.Unlock()
	for _, want := range []string{
		"id=" + id, "method=POST", "path=/solve", "status=200",
		"alg=EVG", "fp=", "cache=none", "solve_status=heuristic",
	} {
		if !strings.Contains(logs, want) {
			t.Errorf("access log missing %q:\n%s", want, logs)
		}
	}
}

// syncWriter serializes concurrent handler log writes for the test.
type syncWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (s syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// TestDebugSolvesEndpoint: GET /debug/solves returns well-formed JSON
// (an empty list on an idle server).
func TestDebugSolvesEndpoint(t *testing.T) {
	ts, _ := startServer(t, service.Options{})
	resp, err := http.Get(ts.URL + "/debug/solves")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/solves = %d", resp.StatusCode)
	}
	var body struct {
		Solves []service.LiveSolve `json:"solves"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Solves) != 0 {
		t.Fatalf("idle server reports %d live solves", len(body.Solves))
	}
}

// TestPprofMount: -pprof mounts the index; without it /debug/pprof/ 404s.
func TestPprofMount(t *testing.T) {
	svc := service.New(service.Options{})
	ts := httptest.NewServer(newServer(svc, serverConfig{pprof: true}))
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/ = %d with -pprof", resp.StatusCode)
	}

	ts2, _ := startServer(t, service.Options{})
	resp2, err := http.Get(ts2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /debug/pprof/ = %d without -pprof, want 404", resp2.StatusCode)
	}
}

// TestStatsGauges: the fixed /stats now carries queue_len, in_flight and
// uptime_s from the service itself.
func TestStatsGauges(t *testing.T) {
	ts, _ := startServer(t, service.Options{})
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"queue_len", "in_flight", "uptime_s", "queue_depth", "workers"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("stats missing %q: %v", raw, key)
		}
	}
	if up, _ := raw["uptime_s"].(float64); up <= 0 {
		t.Errorf("uptime_s = %v", raw["uptime_s"])
	}
}

// TestCacheTierField: the response's cache_tier distinguishes fresh
// ("none"), memory-hit and (via restart) disk-hit answers.
func TestCacheTierField(t *testing.T) {
	dir := t.TempDir()
	ts, _ := startServer(t, service.Options{CacheDir: dir})
	_, r1, _ := postSolve(t, ts.URL+"/solve", tinyHyper)
	if r1.CacheTier != "none" {
		t.Fatalf("fresh solve cache_tier = %q, want none", r1.CacheTier)
	}
	_, r2, _ := postSolve(t, ts.URL+"/solve", tinyHyper)
	if r2.CacheTier != "memory" {
		t.Fatalf("repeat cache_tier = %q, want memory", r2.CacheTier)
	}
	ts.Close()
	ts2, _ := startServer(t, service.Options{CacheDir: dir})
	_, r3, _ := postSolve(t, ts2.URL+"/solve", tinyHyper)
	if r3.CacheTier != "disk" {
		t.Fatalf("restart cache_tier = %q, want disk", r3.CacheTier)
	}
}
