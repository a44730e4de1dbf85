package main

import (
	"errors"
	"math"
	"testing"
)

func TestPercentileTail(t *testing.T) {
	sample := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	if v, ok := percentile(sample(100), 0.9); v != 90 || !ok {
		t.Errorf("p90 of 1..100 = %v, %v; want 90 with 10 samples beyond", v, ok)
	}
	if _, ok := percentile(sample(99), 0.9); ok {
		t.Error("p90 of 99 samples has only 9 beyond it and must not be reported")
	}
	if v, _ := percentile(sample(10), 0.5); v != 5 {
		t.Errorf("p50 of 1..10 = %v, want 5 (nearest rank)", v)
	}
}

func TestSummarizeCountsFailuresAsMisses(t *testing.T) {
	var rs []result
	for i := 0; i < 110; i++ {
		rs = append(rs, result{latencyMs: float64(i % 10)}) // all within 9 ms
	}
	// A failure is fast but still misses the limit, and stays out of the
	// latency percentiles.
	rs = append(rs, result{latencyMs: 0.1, failed: true, err: errors.New("HTTP 429")})
	rs = append(rs, result{latencyMs: 50}) // succeeded, over the limit
	s, err := summarize(rs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.attempted != 112 || s.ok != 111 || s.withinLimit != 110 {
		t.Errorf("attempted %d ok %d within %d; want 112, 111, 110", s.attempted, s.ok, s.withinLimit)
	}
	if got := ratio(float64(s.withinLimit), float64(s.attempted)); math.Abs(got-110.0/112) > 1e-12 {
		t.Errorf("slo attainment %v", got)
	}
	// 111 successes: eleven each of 0..9 ms, then 50 ms. Nearest rank:
	// p50 is the 56th (5 ms), p90 the 100th (9 ms).
	if s.p50 != 5 || s.p90 != 9 {
		t.Errorf("p50 %v p90 %v; want 5 and 9", s.p50, s.p90)
	}
	if _, err := summarize(rs[:50], 10); err == nil {
		t.Error("50 samples cannot support a p90")
	}
}

func TestProcParsing(t *testing.T) {
	stat := "4242 (semi serve) (x)) S 1 4242 4242 0 -1 4194560 900 0 0 0 1234 566 0 0 20 0 7 0 100 0 0"
	cpu, err := procCPUSeconds(stat)
	if err != nil || cpu != 18.0 {
		t.Errorf("cpu = %v, %v; want 18 s (1800 ticks)", cpu, err)
	}
	if _, err := procCPUSeconds("4242 (x) S 1 2"); err == nil {
		t.Error("short stat line accepted")
	}
	status := "Name:\tsemiserve\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n"
	if b, err := procHWMBytes(status); err != nil || b != 20480<<10 {
		t.Errorf("VmHWM = %d, %v; want %d", b, err, 20480<<10)
	}
	if _, err := procHWMBytes("Name:\tx\n"); err == nil {
		t.Error("status without VmHWM accepted")
	}
}

func TestPromDeltas(t *testing.T) {
	before, err := promSamples(`# HELP semimatch_requests_total Requests.
# TYPE semimatch_requests_total counter
semimatch_requests_total 10
semimatch_http_request_seconds_bucket{le="0.005"} 3
semimatch_http_request_seconds_bucket{le="+Inf"} 4
semimatch_http_request_seconds_sum 0.5
semimatch_http_request_seconds_count 4
`)
	if err != nil {
		t.Fatal(err)
	}
	after, err := promSamples(`semimatch_requests_total 30
semimatch_http_request_seconds_bucket{le="0.005"} 3
semimatch_http_request_seconds_bucket{le="+Inf"} 24
semimatch_http_request_seconds_sum 2.5
semimatch_http_request_seconds_count 24
semimatch_solves_total 2
`)
	if err != nil {
		t.Fatal(err)
	}
	d := deltaOf(before, after)
	if got := d.counter("semimatch_requests_total"); got != 20 {
		t.Errorf("requests delta %v, want 20", got)
	}
	if got := d.counter("semimatch_solves_total"); got != 2 {
		t.Errorf("a family absent before counts from 0: %v", got)
	}
	if got := d[`semimatch_http_request_seconds_bucket{le="+Inf"}`]; got != 20 {
		t.Errorf("bucket delta %v, want 20", got)
	}
	if mean, n := d.histMean("semimatch_http_request_seconds"); n != 20 || math.Abs(mean-0.1) > 1e-12 {
		t.Errorf("histogram mean %v over %v; want 0.1 over 20", mean, n)
	}
	if mean, n := d.histMean("semimatch_queue_wait_seconds"); mean != 0 || n != 0 {
		t.Errorf("absent histogram: %v over %v", mean, n)
	}
	if _, err := promSamples("semimatch_requests_total x\n"); err == nil {
		t.Error("malformed sample accepted")
	}
}

func TestLastGCCycle(t *testing.T) {
	log := "time=x level=INFO msg=request path=/solve status=200\n" +
		"gc 1 @0.004s 3%: 0.012+0.5+0.003 ms clock, 0.02+0.1/0.4/0+0.006 ms cpu, 3->3->0 MB, 4 MB goal, 0 MB stacks, 0 MB globals, 2 P\n" +
		"time=y level=INFO msg=request path=/solve status=200 fp=gc 99 @\n" +
		"gc 12 @1.250s 2%: 0.01+1.1+0.002 ms clock, 0.02+0.3/0.9/0+0.004 ms cpu, 9->10->4 MB, 9 MB goal, 0 MB stacks, 0 MB globals, 2 P\n"
	if n, err := lastGCCycle(log); n != 12 || err != nil {
		t.Errorf("last cycle %d, %v; want 12", n, err)
	}
	if n, err := lastGCCycle("time=x level=INFO msg=request\n"); n != 0 || err != nil {
		t.Errorf("no cycle yet: %d, %v", n, err)
	}
}
