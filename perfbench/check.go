package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
)

// solveResp is the part of a POST /solve answer the checks read.
type solveResp struct {
	Kind       string  `json:"kind"`
	Makespan   int64   `json:"makespan"`
	LowerBound int64   `json:"lower_bound"`
	Status     string  `json:"status"`
	Truncated  bool    `json:"truncated"`
	CacheTier  string  `json:"cache_tier"`
	Assignment []int32 `json:"assignment"`
}

// eventReport is the part of a session event report the checks read.
type eventReport struct {
	Seq         int64  `json:"seq"`
	Tasks       int    `json:"tasks"`
	Makespan    int64  `json:"makespan"`
	LowerBound  int64  `json:"lower_bound"`
	SolveStatus string `json:"solve_status"`
}

// quality accumulates the schedule-quality metrics of a pass.
type quality struct {
	ratioSum  float64
	ratios    int // schedules with a positive lower bound
	optimal   int
	schedules int
}

func (q *quality) add(makespan, lb int64, status string) {
	q.schedules++
	if status == "optimal" {
		q.optimal++
	}
	if lb > 0 {
		q.ratioSum += float64(makespan) / float64(lb)
		q.ratios++
	}
}

// schedule recomputes an answer against the generated instance: every
// task's choice must be one of its own configurations (posted numbering,
// mapped back through edgeMap), and the loads it induces give the
// makespan. It returns the makespan and the chosen configurations in the
// instance's own numbering.
func (in *instance) schedule(assign, edgeMap []int32) (int64, []int32, error) {
	if len(assign) != in.tasks() {
		return 0, nil, fmt.Errorf("assignment has %d entries for %d tasks", len(assign), in.tasks())
	}
	chosen := make([]int32, len(assign))
	var loads []int64
	if in.h != nil {
		h := in.h
		loads = make([]int64, h.NProcs)
		for t, e := range assign {
			if e < h.TaskPtr[t] || e >= h.TaskPtr[t+1] {
				return 0, nil, fmt.Errorf("task %d: hyperedge %d is not one of its configurations", t, e)
			}
			if edgeMap != nil {
				e = edgeMap[e]
			}
			chosen[t] = e
			for _, u := range h.EdgeProcs(e) {
				loads[u] += h.Weight[e]
			}
		}
	} else {
		g := in.g
		loads = make([]int64, g.NRight)
		for t, p := range assign {
			row := g.Neighbors(t)
			k := sort.Search(len(row), func(i int) bool { return row[i] >= p })
			if k == len(row) || row[k] != p {
				return 0, nil, fmt.Errorf("task %d: processor %d is not eligible", t, p)
			}
			w := int64(1)
			if ws := g.Weights(t); ws != nil {
				w = ws[k]
			}
			loads[p] += w
			chosen[t] = p
		}
	}
	var ms int64
	for _, l := range loads {
		ms = max(ms, l)
	}
	return ms, chosen, nil
}

// sameChoice reports whether two configurations of the instance are the
// same: equal ids, or equal weight and processor set (a task may list one
// configuration twice).
func (in *instance) sameChoice(a, b int32) bool {
	if a == b {
		return true
	}
	if in.h == nil {
		return false
	}
	return in.h.Weight[a] == in.h.Weight[b] && slices.Equal(in.h.EdgeProcs(a), in.h.EdgeProcs(b))
}

// primed is a hit-workload reference answer: the priming solve of a hot
// instance, in the instance's own numbering.
type primed struct {
	makespan int64
	chosen   []int32
}

// checkSolve checks one POST /solve answer and returns it decoded.
func checkSolve(p *plan, o *op, body []byte) (*solveResp, []int32, error) {
	var r solveResp
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, nil, fmt.Errorf("decode answer: %w", err)
	}
	in := p.instances[o.inst]
	if r.Kind != in.kind() {
		return nil, nil, fmt.Errorf("kind %q, want %q", r.Kind, in.kind())
	}
	ms, chosen, err := in.schedule(r.Assignment, o.edgeMap)
	if err != nil {
		return nil, nil, err
	}
	switch {
	case ms != r.Makespan:
		return nil, nil, fmt.Errorf("makespan %d, the assignment gives %d", r.Makespan, ms)
	case r.LowerBound > r.Makespan:
		return nil, nil, fmt.Errorf("lower bound %d above makespan %d", r.LowerBound, r.Makespan)
	case r.Truncated || r.Status == "truncated":
		return nil, nil, errors.New("answer truncated under the default deadline")
	}
	if in.ref > 0 && (r.Status != "optimal" || r.Makespan != in.ref) {
		return nil, nil, fmt.Errorf("status %s makespan %d, reference optimum %d", r.Status, r.Makespan, in.ref)
	}
	return &r, chosen, nil
}

// checkHit additionally compares a hit answer with the primed one.
func checkHit(in *instance, r *solveResp, chosen []int32, ref *primed) error {
	if r.CacheTier != "memory" {
		return fmt.Errorf("cache tier %q, want memory", r.CacheTier)
	}
	if r.Makespan != ref.makespan {
		return fmt.Errorf("makespan %d, primed answer %d", r.Makespan, ref.makespan)
	}
	for t := range chosen {
		if !in.sameChoice(chosen[t], ref.chosen[t]) {
			return fmt.Errorf("task %d: configuration differs from the primed answer", t)
		}
	}
	return nil
}

// checkEvent checks one session event answer.
func checkEvent(o *op, body []byte) (*eventReport, error) {
	var resp struct {
		Reports []eventReport `json:"reports"`
		Error   string        `json:"error"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decode event answer: %w", err)
	}
	if resp.Error != "" || len(resp.Reports) != 1 {
		return nil, fmt.Errorf("event answer: %d reports, error %q", len(resp.Reports), resp.Error)
	}
	r := &resp.Reports[0]
	switch {
	case r.Seq != o.seq:
		return nil, fmt.Errorf("event seq %d, want %d", r.Seq, o.seq)
	case r.Tasks != o.live:
		return nil, fmt.Errorf("event %d: %d live tasks, the script implies %d", o.seq, r.Tasks, o.live)
	case r.Makespan < r.LowerBound:
		return nil, fmt.Errorf("event %d: makespan %d below lower bound %d", o.seq, r.Makespan, r.LowerBound)
	case r.SolveStatus == "error":
		return nil, fmt.Errorf("event %d: re-solve failed", o.seq)
	}
	return r, nil
}

// checkAll checks every successful op's answer, marks failed checks as
// failed ops, and returns the pass's schedule quality. refs holds the
// primed answers of the hit workload (nil otherwise).
func checkAll(p *plan, ops []op, results []result, refs map[int]*primed) quality {
	var q quality
	for i := range ops {
		o, r := &ops[i], &results[i]
		if r.failed {
			continue
		}
		var err error
		switch o.kind {
		case opSolve:
			var sr *solveResp
			var chosen []int32
			sr, chosen, err = checkSolve(p, o, r.body)
			if err == nil && refs != nil {
				err = checkHit(p.instances[o.inst], sr, chosen, refs[o.inst])
			}
			if err == nil {
				q.add(sr.Makespan, sr.LowerBound, sr.Status)
			}
		case opSessionEvent:
			var er *eventReport
			// A session's adopted schedule is the re-solve's only when it
			// beats the online patch under the migration-aware objective,
			// so optimality is the re-solve's own status.
			if er, err = checkEvent(o, r.body); err == nil && er.Tasks > 0 {
				q.add(er.Makespan, er.LowerBound, er.SolveStatus)
			}
		}
		if err != nil {
			r.failed, r.err = true, err
		}
	}
	return q
}
