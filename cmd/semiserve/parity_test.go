package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"testing"

	"semimatch"
	"semimatch/internal/bipartite"
	"semimatch/internal/encode"
	"semimatch/internal/hypergraph"
	"semimatch/internal/service"
)

// parityWeightedGraph is a seeded weighted SINGLEPROC instance: every
// task runs on 2–4 of the processors, each edge with its own weight in
// [1, 20].
func parityWeightedGraph(seed int64, nTasks, nProcs int) *bipartite.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := bipartite.NewBuilder(nTasks, nProcs)
	for t := 0; t < nTasks; t++ {
		for _, p := range rng.Perm(nProcs)[:2+rng.Intn(nProcs-1)] {
			b.AddWeightedEdge(t, p, 1+rng.Int63n(20))
		}
	}
	return b.MustBuild()
}

// parityInstances is the entry-point parity set: eight weighted 14×4
// bipartite instances (small enough for the auto policy's
// branch-and-bound stage), one unit bipartite instance (ExactUnit) and
// one small weighted hypergraph.
func parityInstances(t *testing.T) (names []string, instances []any) {
	t.Helper()
	for seed := int64(1); seed <= 8; seed++ {
		names = append(names, fmt.Sprintf("weighted-14x4/seed=%d", seed))
		instances = append(instances, parityWeightedGraph(seed, 14, 4))
	}
	unit := bipartite.NewBuilder(12, 4)
	rng := rand.New(rand.NewSource(9))
	for t := 0; t < 12; t++ {
		for _, p := range rng.Perm(4)[:1+rng.Intn(3)] {
			unit.AddEdge(t, p)
		}
	}
	names = append(names, "unit-12x4")
	instances = append(instances, unit.MustBuild())

	hb := hypergraph.NewBuilder(8, 4)
	rng = rand.New(rand.NewSource(10))
	for t := 0; t < 8; t++ {
		for c := 0; c < 1+rng.Intn(3); c++ {
			hb.AddEdge(t, rng.Perm(4)[:1+rng.Intn(3)], 1+rng.Int63n(15))
		}
	}
	names = append(names, "hyper-8x4")
	instances = append(instances, hb.MustBuild())
	return names, instances
}

// serviceStatus is the status label semiserve derives from a service
// result.
func serviceStatus(r *service.Result) string {
	switch {
	case r.Optimal:
		return "optimal"
	case r.Truncated:
		return "truncated"
	default:
		return "heuristic"
	}
}

// TestEntryPointParity: an instance gets the same answer — makespan and
// status — whichever entry point it comes through: the library's Run,
// the batch layer's SolveProblems, the service's Solve, and semiserve's
// POST /solve. Every instance in the set is small enough for the auto
// policy to prove its optimum, so the comparison does not depend on
// which of several heuristic schedules a path happens to keep.
func TestEntryPointParity(t *testing.T) {
	names, instances := parityInstances(t)
	ctx := context.Background()
	problems := make([]semimatch.Problem, len(instances))
	for i, inst := range instances {
		p, err := semimatch.NewProblem(inst)
		if err != nil {
			t.Fatal(err)
		}
		problems[i] = p
	}
	batch, err := semimatch.SolveProblems(ctx, problems)
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Options{})
	ts, _ := startServer(t, service.Options{})

	for i, inst := range instances {
		rep, err := semimatch.Run(ctx, problems[i])
		if err != nil {
			t.Fatalf("%s: Run: %v", names[i], err)
		}
		want := fmt.Sprintf("%d/%s", rep.Makespan, rep.Status)
		if !rep.Optimal() {
			t.Fatalf("%s: Run returned %s; the parity set must be provable", names[i], want)
		}

		if out := batch[i]; out.Err != nil {
			t.Fatalf("%s: SolveProblems: %v", names[i], out.Err)
		} else if got := fmt.Sprintf("%d/%s", out.Report.Makespan, out.Report.Status); got != want {
			t.Errorf("%s: SolveProblems %s, Run %s", names[i], got, want)
		}

		res, err := svc.Solve(ctx, inst, "")
		if err != nil {
			t.Fatalf("%s: service.Solve: %v", names[i], err)
		}
		if got := fmt.Sprintf("%d/%s", res.Makespan, serviceStatus(res)); got != want {
			t.Errorf("%s: service.Solve %s (%s), Run %s", names[i], got, res.Algorithm, want)
		}

		var body bytes.Buffer
		switch v := inst.(type) {
		case *bipartite.Graph:
			err = encode.WriteBipartite(&body, v)
		case *hypergraph.Hypergraph:
			err = encode.WriteHypergraph(&body, v)
		}
		if err != nil {
			t.Fatal(err)
		}
		code, sr, raw := postSolve(t, ts.URL+"/solve", body.String())
		if code != http.StatusOK {
			t.Fatalf("%s: POST /solve: %d %s", names[i], code, raw)
		}
		if got := fmt.Sprintf("%d/%s", sr.Makespan, sr.Status); got != want {
			t.Errorf("%s: POST /solve %s (%s), Run %s", names[i], got, sr.Algorithm, want)
		}
	}
}
