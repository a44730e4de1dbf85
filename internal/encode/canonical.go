package encode

// Canonical forms and content fingerprints. Two instances that are
// isomorphic under reordering — hyperedges listed in a different order
// within a task, processors listed in a different order within a
// configuration, weighted encodings whose weights are all 1 — describe the
// same scheduling problem and must hash identically, so a result cache can
// answer one from the other's solve. The canonical form fixes every such
// degree of freedom:
//
//   - tasks keep their indices (task identity is meaningful: the caller
//     asked about *these* tasks);
//   - processors within a configuration are sorted ascending (the builders
//     already guarantee this);
//   - the hyperedges of each task are sorted by (weight, processor set
//     lexicographically);
//   - bipartite rows are sorted by processor, and a weight vector that is
//     all ones is dropped so the instance is recognized as unit.
//
// The fingerprint is the SHA-256 of the canonical text encoding (the
// WriteBipartite / WriteHypergraph output, which is deterministic), hex
// encoded. The textual header ("bipartite" / "hypergraph") keeps the two
// instance kinds from ever colliding.

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"

	"semimatch/internal/bipartite"
	"semimatch/internal/hypergraph"
)

// CanonicalHypergraph returns the canonical form of h plus the hyperedge
// renumbering perm, where perm[e] is the canonical id of h's hyperedge e.
// Canonicalization only reorders hyperedges within each task, so task and
// processor indices are unchanged: a HyperAssignment on the canonical form
// maps back to h as original[t] = e with perm[e] = canonical[t].
// Canonicalizing a canonical instance is the identity.
func CanonicalHypergraph(h *hypergraph.Hypergraph) (*hypergraph.Hypergraph, []int32, error) {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	order := s.order[:0] // canonical id -> original edge id
	for t := 0; t < h.NTasks; t++ {
		start := len(order)
		order = append(order, h.TaskEdges(t)...)
		slices.SortStableFunc(order[start:], func(a, b int32) int { return compareEdges(h, a, b) })
	}
	s.order = order
	b := s.hyperBuilder(h.NTasks, h.NProcs)
	for _, e := range order {
		b.AddEdge32(h.Owner[e], h.EdgeProcs(e), h.Weight[e])
	}
	canon, err := b.Build()
	if err != nil {
		return nil, nil, fmt.Errorf("encode: canonicalize hypergraph: %w", err)
	}
	perm := make([]int32, len(order))
	for canonID, origID := range order {
		perm[origID] = int32(canonID)
	}
	return canon, perm, nil
}

// compareEdges orders hyperedges by weight, then processor set
// lexicographically: the canonical order within a task.
func compareEdges(h *hypergraph.Hypergraph, a, b int32) int {
	if c := cmp.Compare(h.Weight[a], h.Weight[b]); c != 0 {
		return c
	}
	return slices.Compare(h.EdgeProcs(a), h.EdgeProcs(b))
}

// isCanonicalHypergraph reports, in one linear pass, whether h is a valid
// instance already in canonical form — hyperedges numbered in task order,
// each task's sorted by compareEdges, processors strictly ascending — so
// that its text is the text of its canonical form.
func isCanonicalHypergraph(h *hypergraph.Hypergraph) bool {
	m := h.NumEdges()
	if h.NTasks < 0 || h.NProcs < 0 || len(h.TaskPtr) != h.NTasks+1 || len(h.Edges) != m ||
		len(h.Weight) != m || len(h.PinPtr) != m+1 || h.TaskPtr[0] != 0 || h.PinPtr[0] != 0 {
		return false
	}
	for t := 0; t < h.NTasks; t++ {
		lo, hi := h.TaskPtr[t], h.TaskPtr[t+1]
		if hi <= lo || int(hi) > m {
			return false
		}
		for e := lo; e < hi; e++ {
			if h.Edges[e] != e || h.Owner[e] != int32(t) || h.Weight[e] <= 0 ||
				h.PinPtr[e+1] <= h.PinPtr[e] || int(h.PinPtr[e+1]) > len(h.Pins) {
				return false
			}
			procs := h.EdgeProcs(e)
			if procs[0] < 0 || int(procs[len(procs)-1]) >= h.NProcs {
				return false
			}
			for i := 1; i < len(procs); i++ {
				if procs[i] <= procs[i-1] {
					return false
				}
			}
			if e > lo && compareEdges(h, e-1, e) > 0 {
				return false
			}
		}
	}
	return int(h.TaskPtr[h.NTasks]) == m && int(h.PinPtr[m]) == len(h.Pins)
}

// CanonicalBipartite returns the canonical form of g: rows sorted by
// processor and the weight vector dropped when every weight is 1. Task and
// processor indices are unchanged, so an Assignment (task → processor) is
// valid on both forms interchangeably.
func CanonicalBipartite(g *bipartite.Graph) (*bipartite.Graph, error) {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	b := s.bipartiteBuilder(g.NLeft, g.NRight)
	for t := 0; t < g.NLeft; t++ {
		ws := g.Weights(t)
		for i, p := range g.Neighbors(t) {
			w := int64(1)
			if ws != nil {
				w = ws[i]
			}
			b.AddWeightedEdge(t, int(p), w)
		}
	}
	canon, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("encode: canonicalize bipartite: %w", err)
	}
	return canon, nil
}

// isCanonicalBipartite is isCanonicalHypergraph for bipartite graphs:
// valid, rows strictly ascending, and weighted only if some weight is not
// 1.
func isCanonicalBipartite(g *bipartite.Graph) bool {
	if g.NLeft < 0 || g.NRight < 0 || len(g.Ptr) != g.NLeft+1 || g.Ptr[0] != 0 ||
		int(g.Ptr[g.NLeft]) != len(g.Adj) {
		return false
	}
	if g.W != nil {
		if len(g.W) != len(g.Adj) {
			return false
		}
		unit := true
		for _, w := range g.W {
			if w <= 0 {
				return false
			}
			unit = unit && w == 1
		}
		if unit {
			return false
		}
	}
	for u := 0; u < g.NLeft; u++ {
		lo, hi := g.Ptr[u], g.Ptr[u+1]
		if hi < lo || int(hi) > len(g.Adj) {
			return false
		}
		row := g.Adj[lo:hi]
		for i, v := range row {
			if v < 0 || int(v) >= g.NRight || (i > 0 && v <= row[i-1]) {
				return false
			}
		}
	}
	return true
}

// FingerprintHypergraph returns the collision-resistant content hash of
// h's canonical form: isomorphic instances (reordered configurations,
// reordered processors within a configuration) share a fingerprint, and
// any structural or weight difference changes it. An h already in
// canonical form is hashed as it is, without a rebuild.
func FingerprintHypergraph(h *hypergraph.Hypergraph) (string, error) {
	if !isCanonicalHypergraph(h) {
		canon, _, err := CanonicalHypergraph(h)
		if err != nil {
			return "", err
		}
		h = canon
	}
	return FingerprintCanonicalHypergraph(h)
}

// FingerprintCanonicalHypergraph hashes an instance that is already in
// canonical form (as produced by CanonicalHypergraph), skipping the
// re-canonicalization FingerprintHypergraph would do — for callers on a
// hot path that canonicalize once and need both the form and the hash.
// Passing a non-canonical instance yields a hash that will not match its
// isomorphs. The text is streamed into the hash, never held whole.
func FingerprintCanonicalHypergraph(canon *hypergraph.Hypergraph) (string, error) {
	hash := sha256.New()
	if err := WriteHypergraph(hash, canon); err != nil {
		return "", err
	}
	return hex.EncodeToString(hash.Sum(nil)), nil
}

// FingerprintBipartite is FingerprintHypergraph for bipartite instances.
func FingerprintBipartite(g *bipartite.Graph) (string, error) {
	if !isCanonicalBipartite(g) {
		canon, err := CanonicalBipartite(g)
		if err != nil {
			return "", err
		}
		g = canon
	}
	return FingerprintCanonicalBipartite(g)
}

// FingerprintCanonicalBipartite is FingerprintCanonicalHypergraph for
// bipartite instances already in canonical form.
func FingerprintCanonicalBipartite(canon *bipartite.Graph) (string, error) {
	hash := sha256.New()
	if err := WriteBipartite(hash, canon); err != nil {
		return "", err
	}
	return hex.EncodeToString(hash.Sum(nil)), nil
}
