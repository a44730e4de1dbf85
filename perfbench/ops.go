package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"semimatch/internal/bipartite"
	"semimatch/internal/exact"
	"semimatch/internal/gen"
	"semimatch/internal/hypergraph"
	"semimatch/internal/session"
)

// opKind is what one op asks of the server.
type opKind uint8

const (
	opSolve opKind = iota
	opSessionCreate
	opSessionEvent
	opSessionDelete
)

// instance is one scheduling instance as the benchmark generated it: the
// reference structure the answer checks run against, never a parse of the
// posted bytes.
type instance struct {
	h   *hypergraph.Hypergraph // MULTIPROC
	g   *bipartite.Graph       // SINGLEPROC
	ref int64                  // reference optimum (exact workload), else 0
}

func (in *instance) kind() string {
	if in.h != nil {
		return "hypergraph"
	}
	return "bipartite"
}

func (in *instance) tasks() int {
	if in.h != nil {
		return in.h.NTasks
	}
	return in.g.NLeft
}

// op is one request of a workload's fixed op list.
type op struct {
	kind opKind
	path string // request path for opSolve; session paths are resolved at run time
	body []byte
	// inst indexes plan.instances (opSolve).
	inst int
	// edgeMap maps a hyperedge id as posted to the instance's own edge id;
	// nil when the body states the hyperedges in the instance's order.
	edgeMap []int32
	// sess indexes the session the op belongs to (session ops).
	sess int
	// event and live are the session event and the live-task count the
	// script implies after it (opSessionEvent).
	event *session.Event
	live  int
	seq   int64
}

// plan is a workload's inputs: the warm-up ops run during set-up, the
// measured op list, and the instances both refer to. Every field is a
// function of the seed alone.
type plan struct {
	instances []*instance
	warm      []op
	ops       []op
	// primeCount is how many leading warm ops are priming solves whose
	// answers the hit checks compare against (hit workload).
	primeCount int
}

// writeHyper renders h in the hypergraph text format with the task
// blocks, each task's configurations and each configuration's processors
// in the given orders (nil means h's own order). It returns the bytes and
// the posted-edge → h-edge map the server's assignment is checked with.
func writeHyper(h *hypergraph.Hypergraph, rng *rand.Rand) ([]byte, []int32) {
	var buf bytes.Buffer
	buf.Grow(h.NumPins()*4 + h.NumEdges()*8)
	fmt.Fprintf(&buf, "hypergraph %d %d %d\n", h.NTasks, h.NProcs, h.NumEdges())
	taskOrder := identity(h.NTasks)
	var edgeMap []int32
	if rng != nil {
		rng.Shuffle(len(taskOrder), func(i, j int) { taskOrder[i], taskOrder[j] = taskOrder[j], taskOrder[i] })
		edgeMap = make([]int32, h.NumEdges())
	}
	var line []byte
	for _, t := range taskOrder {
		edges := append([]int32(nil), h.TaskEdges(t)...)
		if rng != nil {
			rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
			// The server numbers a task's hyperedges in the order they
			// are posted, starting at the task's first edge id.
			for k, e := range edges {
				edgeMap[int(h.TaskPtr[t])+k] = e
			}
		}
		for _, e := range edges {
			procs := append([]int32(nil), h.EdgeProcs(e)...)
			if rng != nil {
				rng.Shuffle(len(procs), func(i, j int) { procs[i], procs[j] = procs[j], procs[i] })
			}
			line = strconv.AppendInt(line[:0], int64(t), 10)
			line = append(line, ' ')
			line = strconv.AppendInt(line, h.Weight[e], 10)
			line = append(line, ' ')
			line = strconv.AppendInt(line, int64(len(procs)), 10)
			for _, u := range procs {
				line = append(line, ' ')
				line = strconv.AppendInt(line, int64(u), 10)
			}
			line = append(line, '\n')
			buf.Write(line)
		}
	}
	return buf.Bytes(), edgeMap
}

// writeBip renders g in the bipartite text format, with its edge lines in
// a shuffled order when rng is non-nil. A SINGLEPROC assignment names
// processors, so no map is needed to check it.
func writeBip(g *bipartite.Graph, rng *rand.Rand) []byte {
	kind := "unit"
	if !g.Unit() {
		kind = "weighted"
	}
	lines := make([][]byte, 0, g.NumEdges())
	for t := 0; t < g.NLeft; t++ {
		ws := g.Weights(t)
		for i, p := range g.Neighbors(t) {
			l := strconv.AppendInt(nil, int64(t), 10)
			l = append(l, ' ')
			l = strconv.AppendInt(l, int64(p), 10)
			if ws != nil {
				l = append(l, ' ')
				l = strconv.AppendInt(l, ws[i], 10)
			}
			lines = append(lines, append(l, '\n'))
		}
	}
	if rng != nil {
		rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "bipartite %d %d %s\n", g.NLeft, g.NRight, kind)
	for _, l := range lines {
		buf.Write(l)
	}
	return buf.Bytes()
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// paperFamily is one instance family at the paper's grid sizes
// (Sec. V-A): MULTIPROC at 1280 tasks × 256 processors with d_v = 5,
// d_h = 10, or SINGLEPROC-UNIT at 2560 × 256.
type paperFamily struct {
	name    string
	multi   bool
	gen     gen.Generator
	groups  int
	weights gen.WeightScheme
}

// paperFamilies is the hot set's composition and the paper workload's
// cycle: six MULTIPROC families then two SINGLEPROC ones, a 3:1 mix.
var paperFamilies = []paperFamily{
	{"mp-hilo-g32-related", true, gen.HiLo, 32, gen.Related},
	{"mp-hilo-g128-random", true, gen.HiLo, 128, gen.Random},
	{"mp-fewg-g32-related", true, gen.FewgManyg, 32, gen.Related},
	{"mp-fewg-g128-random", true, gen.FewgManyg, 128, gen.Random},
	{"mp-hilo-g128-related", true, gen.HiLo, 128, gen.Related},
	{"mp-fewg-g32-random", true, gen.FewgManyg, 32, gen.Random},
	{"sp-hilo-g32", false, gen.HiLo, 32, gen.Unit},
	{"sp-fewg-g32", false, gen.FewgManyg, 32, gen.Unit},
}

// build generates the family's instance for seed. HiLo's structure
// ignores the seed, so a SINGLEPROC HiLo instance is made distinct by
// rotating its processor labels by variant, which keeps the banded
// structure (and so the solve cost) and gives 256 distinct instances.
func (f paperFamily) build(seed int64, variant int) (*instance, error) {
	if f.multi {
		h, err := gen.Hypergraph(gen.HyperParams{
			Gen: f.gen, N: 1280, P: 256, Dv: 5, Dh: 10, G: f.groups, Weights: f.weights,
		}, seed)
		return &instance{h: h}, err
	}
	g, err := gen.Bipartite(f.gen, 2560, 256, f.groups, 8, seed)
	if err != nil || f.gen != gen.HiLo {
		return &instance{g: g}, err
	}
	b := bipartite.NewBuilder(g.NLeft, g.NRight)
	for t := 0; t < g.NLeft; t++ {
		for _, p := range g.Neighbors(t) {
			b.AddEdge(t, (int(p)+variant)%g.NRight)
		}
	}
	g, err = b.Build()
	return &instance{g: g}, err
}

// body renders an instance in its own order (rng nil) or as a shuffled
// isomorphic restatement.
func (in *instance) body(rng *rand.Rand) ([]byte, []int32) {
	if in.h != nil {
		return writeHyper(in.h, rng)
	}
	return writeBip(in.g, rng), nil
}

// newRand returns one of a run's independent random streams: salt
// separates the streams of one seed.
func newRand(seed, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + salt))
}

// restatements is how many isomorphic restatements of each hot instance
// the hit workload cycles through: every one is new bytes to the server,
// and a small pool keeps the op list small.
const restatements = 8

// planHit builds the hit workload: eight hot paper-scale instances,
// primed once each during set-up, then n ops cycling over them in a
// seeded order, alternating byte-identical repeats with shuffled
// isomorphic restatements.
func planHit(seed int64, n int) (*plan, error) {
	seeds := newRand(seed, 1)
	p := &plan{}
	for _, f := range paperFamilies {
		in, err := f.build(seeds.Int63(), int(seed%256))
		if err != nil {
			return nil, err
		}
		p.instances = append(p.instances, in)
	}
	originals := make([][]byte, len(p.instances))
	for i, in := range p.instances {
		originals[i], _ = in.body(nil)
		p.warm = append(p.warm, op{kind: opSolve, path: "/solve", body: originals[i], inst: i})
	}
	p.primeCount = len(p.warm)
	// One untimed round of repeats warms the hit path itself.
	for i := range p.instances {
		p.warm = append(p.warm, op{kind: opSolve, path: "/solve", body: originals[i], inst: i})
	}
	rng := newRand(seed, 2)
	pool := make([][]op, len(p.instances))
	var order []int
	for len(p.ops) < n {
		if len(order) == 0 {
			order = rng.Perm(len(p.instances))
		}
		i := order[0]
		order = order[1:]
		o := op{kind: opSolve, path: "/solve", inst: i, body: originals[i]}
		if len(p.ops)%2 == 1 {
			if len(pool[i]) < restatements {
				o.body, o.edgeMap = p.instances[i].body(rng)
			} else {
				o, pool[i] = pool[i][0], pool[i][1:]
			}
			pool[i] = append(pool[i], o)
		}
		p.ops = append(p.ops, o)
	}
	return p, nil
}

// planPaper builds the paper workload: n never-seen paper-scale
// instances cycling over the families (3 MULTIPROC : 1 SINGLEPROC), plus
// one warm-up instance per family from a separate seed stream.
func planPaper(seed int64, n int) (*plan, error) {
	p := &plan{}
	// Each family's instances take successive variants, so no two of
	// one run coincide.
	variant := make(map[string]int)
	start := int(seed % 256)
	add := func(dst *[]op, f paperFamily, s int64) error {
		in, err := f.build(s, start+variant[f.name])
		variant[f.name]++
		if err != nil {
			return err
		}
		p.instances = append(p.instances, in)
		body, _ := in.body(nil)
		*dst = append(*dst, op{kind: opSolve, path: "/solve", body: body, inst: len(p.instances) - 1})
		return nil
	}
	warmSeeds := newRand(seed, 3)
	for _, f := range paperFamilies {
		if err := add(&p.warm, f, warmSeeds.Int63()); err != nil {
			return nil, err
		}
	}
	seeds := newRand(seed, 4)
	order := newRand(seed, 5)
	var cycle []int
	for len(p.ops) < n {
		if len(cycle) == 0 {
			cycle = order.Perm(len(paperFamilies))
		}
		if err := add(&p.ops, paperFamilies[cycle[0]], seeds.Int63()); err != nil {
			return nil, err
		}
		cycle = cycle[1:]
	}
	return p, nil
}

// exactShape is one of the perf grid's hard small shapes, at a task
// count drawn from [minTasks, maxTasks].
type exactShape struct {
	name               string
	minTasks, maxTasks int
	build              func(rng *rand.Rand, tasks int) (*instance, error)
}

// exactShapes: identical machines (partition) and restricted
// eligibility, for both classes. The three hard shapes stay at 18 tasks:
// at 20, about one instance in a few thousand needs more sequential
// search nodes than the server's default budget of 20M, which would
// truncate its answer.
var exactShapes = []exactShape{
	{"mp-partition", 18, 18, func(rng *rand.Rand, n int) (*instance, error) {
		const procs = 4
		b := hypergraph.NewBuilder(n, procs)
		for t := 0; t < n; t++ {
			w := 20 + rng.Int63n(61)
			for v := 0; v < procs; v++ {
				b.AddEdge(t, []int{v}, w)
			}
		}
		h, err := b.Build()
		return &instance{h: h}, err
	}},
	{"mp-random", 18, 20, func(rng *rand.Rand, n int) (*instance, error) {
		const procs = 8
		b := hypergraph.NewBuilder(n, procs)
		for t := 0; t < n; t++ {
			d := 1 + rng.Intn(5)
			for j := 0; j < d; j++ {
				size := 1 + rng.Intn(2)
				b.AddEdge(t, rng.Perm(procs)[:size], 1+rng.Int63n(60))
			}
		}
		h, err := b.Build()
		return &instance{h: h}, err
	}},
	{"sp-partition", 18, 18, func(rng *rand.Rand, n int) (*instance, error) {
		const procs = 4
		b := bipartite.NewBuilder(n, procs)
		for t := 0; t < n; t++ {
			w := 20 + rng.Int63n(61)
			for v := 0; v < procs; v++ {
				b.AddWeightedEdge(t, v, w)
			}
		}
		g, err := b.Build()
		return &instance{g: g}, err
	}},
	{"sp-restricted", 18, 18, func(rng *rand.Rand, n int) (*instance, error) {
		const procs = 5
		b := bipartite.NewBuilder(n, procs)
		for t := 0; t < n; t++ {
			w := 20 + rng.Int63n(61)
			d := 2 + rng.Intn(3)
			for _, v := range rng.Perm(procs)[:d] {
				b.AddWeightedEdge(t, v, w)
			}
		}
		g, err := b.Build()
		return &instance{g: g}, err
	}},
}

// referenceOptimum solves an exact-workload instance in process with the
// parallel branch-and-bound engine — a different engine from the
// sequential one the server runs — to check the server's optimum against.
func referenceOptimum(in *instance) (int64, error) {
	opts := exact.Options{Workers: 2, MaxNodes: 1 << 30}
	var ms int64
	var err error
	if in.h != nil {
		_, ms, err = exact.SolveMultiProcParCtx(context.Background(), in.h, opts)
	} else {
		_, ms, err = exact.SolveSingleProcParCtx(context.Background(), in.g, opts)
	}
	if err != nil {
		return 0, fmt.Errorf("reference optimum: %w", err)
	}
	return ms, nil
}

// exactWarm is the exact workload's warm-up op count.
const exactWarm = 96

// planExact builds the exact workload: n fresh small hard instances
// cycling over the four shapes, posted with ?alg=bnb, each with its
// reference optimum; warm-up instances come from a separate stream.
func planExact(seed int64, n int) (*plan, error) {
	p := &plan{}
	add := func(dst *[]op, rng *rand.Rand, shape exactShape) error {
		in, err := shape.build(rng, shape.minTasks+rng.Intn(shape.maxTasks-shape.minTasks+1))
		if err != nil {
			return err
		}
		if in.ref, err = referenceOptimum(in); err != nil {
			return err
		}
		p.instances = append(p.instances, in)
		body, _ := in.body(nil)
		*dst = append(*dst, op{kind: opSolve, path: "/solve?alg=bnb", body: body, inst: len(p.instances) - 1})
		return nil
	}
	warmRng := newRand(seed, 6)
	for i := 0; i < exactWarm; i++ {
		if err := add(&p.warm, warmRng, exactShapes[i%len(exactShapes)]); err != nil {
			return nil, err
		}
	}
	rng := newRand(seed, 7)
	for i := 0; i < n; i++ {
		if err := add(&p.ops, rng, exactShapes[i%len(exactShapes)]); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// sessionEvents is the script length of one session.
const sessionEvents = 200

// sessionHeader is the POST /session body: a MULTIPROC session on eight
// processors with migration weight λ = 1.
var sessionHeader = session.ScriptHeader{Procs: 8, Multi: true, Lambda: 1}

// sessionOps appends one session's ops: create, one op per event of a
// seeded script whose departures match its arrivals, delete.
func sessionOps(dst []op, sess int, scriptSeed int64) ([]op, error) {
	hdr, err := json.Marshal(sessionHeader)
	if err != nil {
		return nil, err
	}
	dst = append(dst, op{kind: opSessionCreate, body: hdr, sess: sess})
	events := session.GenerateScript(session.ScriptOptions{
		Seed: scriptSeed, Events: sessionEvents, Procs: sessionHeader.Procs, Multi: true,
		DepartPct: 40, ReweighPct: 20,
	})
	live := 0
	for i := range events {
		ev := &events[i]
		switch ev.Op {
		case session.OpArrive:
			live++
		case session.OpDepart:
			live--
		}
		body, err := json.Marshal(ev)
		if err != nil {
			return nil, err
		}
		dst = append(dst, op{kind: opSessionEvent, body: append(body, '\n'), sess: sess,
			event: ev, live: live, seq: int64(i + 1)})
	}
	return append(dst, op{kind: opSessionDelete, sess: sess}), nil
}

// planSession builds the session workload: whole sessions until the list
// holds at least n ops, after warmSessions warm-up sessions.
func planSession(seed int64, n int) (*plan, error) {
	const warmSessions = 3
	p := &plan{}
	seeds := newRand(seed, 8)
	var err error
	sess := 0
	for ; sess < warmSessions; sess++ {
		if p.warm, err = sessionOps(p.warm, sess, seeds.Int63()); err != nil {
			return nil, err
		}
	}
	for ; len(p.ops) < n; sess++ {
		if p.ops, err = sessionOps(p.ops, sess, seeds.Int63()); err != nil {
			return nil, err
		}
	}
	return p, nil
}
