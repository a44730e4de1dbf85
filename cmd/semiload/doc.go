// Command semiload is the service load generator: it drives a seeded,
// reproducible mix of workloads against one or more running semiserve
// processes and records the service-perf trajectory — sustained QPS,
// latency percentiles, cache and peer hit rates, shed counts — as the
// "loadbench" section (schema semimatch-loadbench/v1) of a BENCH_<n>
// .json snapshot. Where cmd/semibench measures the solver (nodes,
// wall, speedup), semiload measures the serving layer wrapped around
// it: admission, coalescing, the memory/disk/peer cache tiers, and —
// against a fleet — cross-replica cache traffic.
//
// Usage:
//
//	semiload -targets http://127.0.0.1:8080                  # one process
//	semiload -targets http://127.0.0.1:18711,http://127.0.0.1:18712,http://127.0.0.1:18713 \
//	         -duration 10s -concurrency 16 -seed 1 \
//	         -merge BENCH_6.json                              # record a fleet run
//	semiload -targets ... -mix repeat=70,iso=30 -out load.json
//
// # Workloads (-mix, -seed, -hot)
//
// Four workloads, drawn per request by relative weight (the default mix
// is repeat=55,iso=20,miss=20,long=5):
//
//	repeat  a byte-identical repeat of one of the -hot warm instances:
//	        a memory hit on the replica that solved it, a verified peer
//	        hit on the others.
//	iso     a freshly shuffled isomorphic restatement of a warm
//	        instance — same canonical fingerprint, different bytes —
//	        so canonicalization runs on every request and still hits.
//	miss    a never-seen instance. All workers in one wave post the
//	        same new instance concurrently, so misses arrive as the
//	        coalescable bursts of a cache stampede, exercising the
//	        single-flight layer.
//	long    a hard exact-solver instance under a tight ?deadline
//	        (-long-deadline, default 200ms): a guaranteed
//	        deadline-truncated solve, which the service must answer
//	        with its incumbent and never cache.
//
// Everything is derived from -seed: the warm set, the shuffles, the
// per-request workload draws, the miss instances. The same flags replay
// the same request sequence.
//
// Before the clock starts, each warm instance is solved once. Against a
// fleet, that priming solve is posted to the replica the fleet's own
// rendezvous ring says owns the instance's fingerprint (semiload builds
// the same ring from -targets), so subsequent repeats on the other
// replicas find the entry exactly where cache peering looks for it.
// Warmup happens before the /metrics baseline scrape and is excluded
// from every reported number.
//
// # Report
//
// The run prints a human summary and (with -out) writes the report
// JSON, one object:
//
//	{
//	  "schema": "semimatch-loadbench/v1",
//	  "targets": [...], "concurrency": 16, "seed": 1,
//	  "mix": {"repeat_pct": 55, "iso_pct": 20, "miss_pct": 20, "long_pct": 5},
//	  "warmup": 8, "duration_s": 10.0,
//	  "requests": 1234, "errors": 2, "shed": 3, "truncated": 31,
//	  "by_status": {"429": 3, "504": 2},
//	  "qps": 123.4,
//	  "latency_p50_ms": 1.2, "latency_p95_ms": 9.8, "latency_p99_ms": 201.0,
//	  "tiers": {"memory": 600, "peer": 14, "none": 120},
//	  "workloads": {"repeat": 680, "iso": 247, "miss": 246, "long": 61},
//	  "cache_hit_rate": 0.83, "peer_hit_rate": 0.019,
//	  "target_metrics": [
//	    {"url": "http://127.0.0.1:18711",
//	     "deltas": {"semimatch_requests_total": 412,
//	                "semimatch_peer_hits_total": 5, ...}}, ...
//	  ]
//	}
//
// tiers counts 200 responses by cache_tier ("none" = fresh solve);
// shed counts 429s; by_status counts every non-200 response by HTTP
// status code (the 429s again, plus the codes behind errors; transport
// failures have no code and count in errors only), and the text summary
// prints the same breakdown; target_metrics holds each process's
// semimatch_*_total counter movement over the measured window (after
// minus before, zero deltas omitted) — a fleet run is healthy when some
// replica's semimatch_peer_hits_total delta is nonzero.
//
// # Recording a snapshot (-merge)
//
// -merge folds the report into one or more existing BENCH json files
// (written by semibench -bench) as their "loadbench" section, leaving
// the solver grid untouched — so one BENCH_<n>.json version both the
// solver numbers and the serving numbers measured on top of them. The
// recorded trajectory lives in EXPERIMENTS.md.
package main
