package main

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"semimatch/internal/core"
)

func answer(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCheckSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in, err := exactShapes[1].build(rng, 12) // mp-random
	if err != nil {
		t.Fatal(err)
	}
	h := in.h
	body, edgeMap := in.body(rng)
	p := &plan{instances: []*instance{in}}
	o := &op{kind: opSolve, inst: 0, body: body, edgeMap: edgeMap}

	// A valid answer in posted numbering: each task's first posted edge.
	assign := make([]int32, h.NTasks)
	own := make(core.HyperAssignment, h.NTasks)
	for t := range assign {
		assign[t] = h.TaskPtr[t]
		own[t] = edgeMap[assign[t]]
	}
	ms := core.HyperMakespan(h, own)
	good := map[string]any{"kind": "hypergraph", "makespan": ms, "lower_bound": 1, "status": "heuristic", "assignment": assign}
	if _, _, err := checkSolve(p, o, answer(t, good)); err != nil {
		t.Fatalf("valid answer rejected: %v", err)
	}

	bad := map[string]map[string]any{
		"makespan":     {"makespan": ms + 1},
		"bound":        {"lower_bound": ms + 1},
		"kind":         {"kind": "bipartite"},
		"truncated":    {"truncated": true},
		"foreign edge": {"assignment": append([]int32{h.TaskPtr[1]}, assign[1:]...)},
	}
	for name, patch := range bad {
		a := map[string]any{}
		for k, v := range good {
			a[k] = v
		}
		for k, v := range patch {
			a[k] = v
		}
		if _, _, err := checkSolve(p, o, answer(t, a)); err == nil {
			t.Errorf("%s: forged answer accepted", name)
		}
	}

	in.ref = ms - 1
	if _, _, err := checkSolve(p, o, answer(t, good)); err == nil || !strings.Contains(err.Error(), "reference optimum") {
		t.Errorf("answer off the reference optimum accepted: %v", err)
	}
}

func TestCheckEvent(t *testing.T) {
	o := &op{kind: opSessionEvent, seq: 3, live: 2}
	ok := map[string]any{"reports": []map[string]any{{"seq": 3, "tasks": 2, "makespan": 9, "lower_bound": 7, "solve_status": "optimal"}}}
	if _, err := checkEvent(o, answer(t, ok)); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	for name, r := range map[string]map[string]any{
		"live count":  {"seq": 3, "tasks": 3, "makespan": 9, "lower_bound": 7},
		"bound":       {"seq": 3, "tasks": 2, "makespan": 6, "lower_bound": 7},
		"seq":         {"seq": 4, "tasks": 2, "makespan": 9, "lower_bound": 7},
		"solve error": {"seq": 3, "tasks": 2, "makespan": 9, "lower_bound": 7, "solve_status": "error"},
	} {
		if _, err := checkEvent(o, answer(t, map[string]any{"reports": []map[string]any{r}})); err == nil {
			t.Errorf("%s: bad report accepted", name)
		}
	}
}
