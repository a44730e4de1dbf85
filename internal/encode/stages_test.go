package encode

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"semimatch/internal/bipartite"
	"semimatch/internal/gen"
	"semimatch/internal/hypergraph"
)

// The three stages of ingesting an instance — parse, canonicalize,
// fingerprint — at the paper's sizes (Sec. V-A: 1280×256 MULTIPROC,
// 2560×256 SINGLEPROC), as benchmarks, and as allocation ceilings that
// do not grow with the edge count.

// stageCase is one instance with the request bodies a service sees for
// it: the generator's text, and a restatement of it with lines and
// processor lists shuffled.
type stageCase struct {
	name           string
	inst           any // *hypergraph.Hypergraph or *bipartite.Graph
	body, shuffled []byte
}

// stageCases returns a MULTIPROC instance of nMulti tasks (FewgManyg,
// g = 32, d_v = 5, d_h = 10, related weights), a SINGLEPROC-UNIT one of
// nSingle tasks (FewgManyg, g = 32, d = 8) and a copy of the latter with
// random weights, all over procs processors.
func stageCases(tb testing.TB, nMulti, nSingle, procs int) []stageCase {
	tb.Helper()
	h, err := gen.Hypergraph(gen.HyperParams{Gen: gen.FewgManyg, N: nMulti, P: procs, Dv: 5, Dh: 10, G: 32, Weights: gen.Related}, 1)
	if err != nil {
		tb.Fatal(err)
	}
	g, err := gen.Bipartite(gen.FewgManyg, nSingle, procs, 32, 8, 1)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	w := make([]int64, g.NumEdges())
	for i := range w {
		w[i] = 1 + rng.Int63n(100)
	}
	gw := &bipartite.Graph{NLeft: g.NLeft, NRight: g.NRight, Ptr: g.Ptr, Adj: g.Adj, W: w}
	var cases []stageCase
	for _, c := range []struct {
		name string
		inst any
	}{
		{"multiproc", h}, {"singleproc-unit", g}, {"singleproc-weighted", gw},
	} {
		var buf bytes.Buffer
		var err error
		if hh, ok := c.inst.(*hypergraph.Hypergraph); ok {
			err = WriteHypergraph(&buf, hh)
		} else {
			err = WriteBipartite(&buf, c.inst.(*bipartite.Graph))
		}
		if err != nil {
			tb.Fatal(err)
		}
		cases = append(cases, stageCase{c.name, c.inst, buf.Bytes(), shuffleBody(buf.Bytes(), rng)})
	}
	return cases
}

// shuffleBody restates an instance text: the same header, the lines in a
// random order, and each hyperedge's processors in a random order.
func shuffleBody(body []byte, rng *rand.Rand) []byte {
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	rest := lines[1:]
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	if strings.HasPrefix(lines[0], "hypergraph") {
		for i, l := range rest {
			f := strings.Fields(l)
			procs := f[3:]
			rng.Shuffle(len(procs), func(i, j int) { procs[i], procs[j] = procs[j], procs[i] })
			rest[i] = strings.Join(f, " ")
		}
	}
	return []byte(strings.Join(lines, "\n") + "\n")
}

func canonicalize(inst any) (any, error) {
	if h, ok := inst.(*hypergraph.Hypergraph); ok {
		c, _, err := CanonicalHypergraph(h)
		return c, err
	}
	return CanonicalBipartite(inst.(*bipartite.Graph))
}

func fingerprintCanonical(canon any) (string, error) {
	if h, ok := canon.(*hypergraph.Hypergraph); ok {
		return FingerprintCanonicalHypergraph(h)
	}
	return FingerprintCanonicalBipartite(canon.(*bipartite.Graph))
}

// fingerprint is the certificate's route: the one-call fingerprint, which
// skips the rebuild for a canonical instance.
func fingerprint(inst any) (string, error) {
	if h, ok := inst.(*hypergraph.Hypergraph); ok {
		return FingerprintHypergraph(h)
	}
	return FingerprintBipartite(inst.(*bipartite.Graph))
}

// readFrom is the io.Reader parse of the format body's header names.
func readFrom(body []byte) (any, error) {
	if bytes.HasPrefix(body, []byte(kindHypergraph)) {
		return ReadHypergraph(bytes.NewReader(body))
	}
	return ReadBipartite(bytes.NewReader(body))
}

// maxStageAllocs is the allocation ceiling of one stage call. What a call
// returns accounts for most of it: a hypergraph is a struct and six
// arrays, plus the hyperedge-seen set Validate builds.
const maxStageAllocs = 16

func TestStageAllocationsDoNotGrow(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	sizes := []struct {
		name                  string
		nMulti, nSingle, proc int
	}{
		{"small", 80, 160, 64},
		{"paper", 1280, 2560, 256},
	}
	for _, size := range sizes {
		for _, c := range stageCases(t, size.nMulti, size.nSingle, size.proc) {
			inst, err := Parse(c.shuffled)
			if err != nil {
				t.Fatal(err)
			}
			canon, err := canonicalize(inst)
			if err != nil {
				t.Fatal(err)
			}
			stages := []struct {
				name string
				fn   func() error
			}{
				{"Parse", func() error { _, err := Parse(c.body); return err }},
				{"Parse/shuffled", func() error { _, err := Parse(c.shuffled); return err }},
				{"Read/shuffled", func() error { _, err := readFrom(c.shuffled); return err }},
				{"Canonical", func() error { _, err := canonicalize(inst); return err }},
				{"FingerprintCanonical", func() error { _, err := fingerprintCanonical(canon); return err }},
				{"Fingerprint/canonical", func() error { _, err := fingerprint(canon); return err }},
			}
			for _, st := range stages {
				var err error
				allocs := testing.AllocsPerRun(10, func() {
					if e := st.fn(); e != nil {
						err = e
					}
				})
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", size.name, c.name, st.name, err)
				}
				if allocs > maxStageAllocs {
					t.Errorf("%s/%s/%s: %.0f allocations per call, ceiling %d",
						size.name, c.name, st.name, allocs, maxStageAllocs)
				}
			}
		}
	}
}

// TestFingerprintSkipsRebuildWhenCanonical: on a canonical instance the
// one-call fingerprint costs what hashing alone costs, and on a
// non-canonical one it still hashes the canonical form.
func TestFingerprintSkipsRebuildWhenCanonical(t *testing.T) {
	for _, c := range stageCases(t, 80, 160, 64) {
		inst, err := Parse(c.shuffled)
		if err != nil {
			t.Fatal(err)
		}
		canon, err := canonicalize(inst)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fingerprintCanonical(canon)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []any{inst, canon, c.inst} {
			if got, err := fingerprint(v); err != nil || got != want {
				t.Fatalf("%s: fingerprint %s, %v; want %s", c.name, got, err, want)
			}
		}
		if raceEnabled {
			continue
		}
		direct := testing.AllocsPerRun(10, func() { fingerprintCanonical(canon) })
		oneCall := testing.AllocsPerRun(10, func() { fingerprint(canon) })
		if oneCall != direct {
			t.Errorf("%s: fingerprinting a canonical instance allocates %.0f, hashing alone %.0f", c.name, oneCall, direct)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	for _, c := range stageCases(b, 1280, 2560, 256) {
		for _, body := range []struct {
			name string
			data []byte
		}{{"", c.body}, {"/shuffled", c.shuffled}} {
			b.Run(c.name+body.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(body.data)))
				for i := 0; i < b.N; i++ {
					if _, err := Parse(body.data); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkCanonicalize(b *testing.B) {
	for _, c := range stageCases(b, 1280, 2560, 256) {
		inst, err := Parse(c.shuffled)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := canonicalize(inst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFingerprint(b *testing.B) {
	for _, c := range stageCases(b, 1280, 2560, 256) {
		canon, err := canonicalize(c.inst)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fingerprintCanonical(canon); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestStagesConcurrent runs the stages from several goroutines at once:
// they share pooled scratch, and each call must still see only its own.
func TestStagesConcurrent(t *testing.T) {
	cases := stageCases(t, 80, 160, 64)
	want := make([]string, len(cases))
	for i, c := range cases {
		fp, err := fingerprint(c.inst)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fp
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				for i, c := range cases {
					inst, err := readFrom(c.shuffled)
					if err != nil {
						t.Error(err)
						return
					}
					canon, err := canonicalize(inst)
					if err != nil {
						t.Error(err)
						return
					}
					fp, err := fingerprintCanonical(canon)
					if err != nil || fp != want[i] {
						t.Errorf("%s: fingerprint %s, %v; want %s", c.name, fp, err, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
