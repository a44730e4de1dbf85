// Package batch solves many instances at once on a worker pool. A work
// item is a solve.Problem (SINGLEPROC bipartite or MULTIPROC hypergraph,
// freely mixed in one batch), and each one is answered by
// solve.RunOptions with the caller's options — by default the auto
// policy: a heuristic race, then an exact stage when the instance allows
// it, with the best schedule so far kept when a deadline expires.
//
// Failures are isolated per instance: an empty problem, a panic, or a
// timeout in one work item is recorded in its Outcome and never poisons
// its siblings. Makespans do not depend on the pool width; the schedule
// identity may vary across runs when several co-optimal schedules exist
// and a parallel exact stage races to one of them.
package batch

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"semimatch/internal/solve"
)

// Outcome is the per-problem result of Solve: the unified solve Report,
// or this problem's failure. Exactly one of the two is nil — except when
// the auto policy's exact stage failed unexpectedly, in which case the
// heuristic-stage Report accompanies the error.
type Outcome struct {
	Report *solve.Report
	Err    error
	// Elapsed is the wall-clock time spent on this problem, set even
	// when the solve failed (Report.Elapsed covers successes only).
	Elapsed time.Duration
}

// Solve runs solve.RunOptions(ctx, problem, opts) for every problem on a
// pool of workers goroutines (0 means GOMAXPROCS) and returns one Outcome
// per problem, in input order. opts applies to every problem, so an
// Observer or Progress hook in it must be safe for concurrent calls. When
// ctx is cancelled mid-batch Solve returns promptly with the partial
// results alongside ctx's error: in-flight solves stop at their next
// context poll (keeping their best schedule so far) and problems that
// never started carry a "not started" error.
func Solve(ctx context.Context, workers int, problems []solve.Problem, opts solve.Options) ([]Outcome, error) {
	outs := make([]Outcome, len(problems))
	started := make([]bool, len(problems))
	err := ForEach(ctx, workers, len(problems), func(ctx context.Context, i int) error {
		started[i] = true
		outs[i] = solveOne(ctx, problems[i], opts)
		return nil
	})
	for i := range outs {
		if !started[i] {
			outs[i] = Outcome{Err: fmt.Errorf("batch: not started: %w", ctx.Err())}
		}
	}
	return outs, err
}

// solveOne runs one problem. It never lets a failure escape: panics and
// errors end up in the Outcome.
func solveOne(ctx context.Context, p solve.Problem, opts solve.Options) (out Outcome) {
	start := time.Now()
	defer func() {
		if pv := recover(); pv != nil {
			out = Outcome{Err: fmt.Errorf("batch: panic solving instance: %v", pv)}
		}
		out.Elapsed = time.Since(start)
	}()
	rep, err := solve.RunOptions(ctx, p, opts)
	return Outcome{Report: rep, Err: err}
}

// ForEach runs fn(ctx, i) for every index in [0, n) on a pool of workers —
// the sharding primitive under Solve, exported for other fan-out loops
// (the bench harness drives its experiment grids through it). It stops
// dispatching when ctx is cancelled or fn returns an error (in-flight
// calls get a context cancelled at that point) and returns the first
// error, or ctx's error when the context ended the run.
func ForEach(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if cctx.Err() != nil {
					return
				}
				if err := fn(cctx, i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-cctx.Done():
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
