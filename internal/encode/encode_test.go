package encode

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"semimatch/internal/bipartite"
	"semimatch/internal/gen"
	"semimatch/internal/hypergraph"
)

func TestBipartiteRoundTripUnit(t *testing.T) {
	g, err := bipartite.NewFromAdjacency(3, [][]int{{0, 2}, {1}, {0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBipartite(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBipartite(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Ptr, g2.Ptr) || !reflect.DeepEqual(g.Adj, g2.Adj) || !g2.Unit() {
		t.Fatal("round trip mismatch")
	}
}

func TestBipartiteRoundTripWeighted(t *testing.T) {
	b := bipartite.NewBuilder(2, 2)
	b.AddWeightedEdge(0, 0, 5)
	b.AddWeightedEdge(0, 1, 1)
	b.AddWeightedEdge(1, 1, 9)
	g := b.MustBuild()
	var buf bytes.Buffer
	if err := WriteBipartite(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBipartite(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.W, g2.W) {
		t.Fatalf("weights: %v vs %v", g.W, g2.W)
	}
}

func TestHypergraphRoundTrip(t *testing.T) {
	b := hypergraph.NewBuilder(3, 4)
	b.AddEdge(0, []int{0}, 2)
	b.AddEdge(0, []int{1, 2}, 1)
	b.AddEdge(1, []int{2, 3}, 5)
	b.AddEdge(2, []int{0, 1, 2, 3}, 1)
	h := b.MustBuild()
	var buf bytes.Buffer
	if err := WriteHypergraph(&buf, h); err != nil {
		t.Fatal(err)
	}
	h2, err := ReadHypergraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h.Pins, h2.Pins) || !reflect.DeepEqual(h.Weight, h2.Weight) ||
		!reflect.DeepEqual(h.Owner, h2.Owner) {
		t.Fatal("round trip mismatch")
	}
}

func TestCommentsAndBlanksIgnored(t *testing.T) {
	src := `# a comment

bipartite 2 2 unit
# edges below
0 0

1 1
`
	g, err := ReadBipartite(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		name, src string
		hyper     bool
	}{
		{"empty", "", false},
		{"bad header kind", "bipartite 2 2 float\n", false},
		{"wrong word", "graph 2 2 unit\n", false},
		{"bad sizes", "bipartite x 2 unit\n", false},
		{"field count", "bipartite 2 2 unit\n0 0 5\n", false},
		{"bad weight", "bipartite 2 2 weighted\n0 0 w\n", false},
		{"edge out of range", "bipartite 2 2 unit\n0 7\n", false},
		{"hyper empty", "", true},
		{"hyper bad header", "hypergraph 1 1\n", true},
		{"hyper truncated edge", "hypergraph 1 1 1\n0 1\n", true},
		{"hyper proc count", "hypergraph 1 1 1\n0 1 2 0\n", true},
		{"hyper count mismatch", "hypergraph 1 1 2\n0 1 1 0\n", true},
		{"hyper bad proc", "hypergraph 1 1 1\n0 1 1 z\n", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			if tc.hyper {
				_, err = ReadHypergraph(strings.NewReader(tc.src))
			} else {
				_, err = ReadBipartite(strings.NewReader(tc.src))
			}
			if err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestHeaderAllocationBomb(t *testing.T) {
	// Regression (found by FuzzReadBipartite): a huge declared dimension
	// must be rejected before allocating, not OOM the process.
	if _, err := ReadBipartite(strings.NewReader("bipartite 99999999999 2 unit\n")); err == nil {
		t.Fatal("giant n accepted")
	}
	if _, err := ReadHypergraph(strings.NewReader("hypergraph 2 99999999999 0\n")); err == nil {
		t.Fatal("giant p accepted")
	}
	if _, err := ReadHypergraph(strings.NewReader("hypergraph 2 2 99999999999\n")); err == nil {
		t.Fatal("giant m accepted")
	}
}

func TestDetectKind(t *testing.T) {
	if k, err := DetectKind([]byte("# c\nbipartite 1 1 unit\n")); err != nil || k != "bipartite" {
		t.Fatalf("k=%q err=%v", k, err)
	}
	if k, err := DetectKind([]byte("hypergraph 1 1 0\n")); err != nil || k != "hypergraph" {
		t.Fatalf("k=%q err=%v", k, err)
	}
	if _, err := DetectKind([]byte("")); err == nil {
		t.Fatal("empty accepted")
	}
	if _, err := DetectKind([]byte("nonsense\n")); err == nil {
		t.Fatal("nonsense accepted")
	}
}

func TestPropertyRoundTripGeneratedHypergraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := gen.HyperParams{
			Gen:     gen.Generator(rng.Intn(2)),
			N:       1 + rng.Intn(60),
			P:       4 + rng.Intn(30),
			Dv:      1 + rng.Intn(4),
			Dh:      1 + rng.Intn(5),
			G:       1 + rng.Intn(4),
			Weights: gen.WeightScheme(rng.Intn(3)),
			MaxW:    20,
		}
		h, err := gen.Hypergraph(p, seed)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if WriteHypergraph(&buf, h) != nil {
			return false
		}
		h2, err := ReadHypergraph(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(h.Pins, h2.Pins) &&
			reflect.DeepEqual(h.PinPtr, h2.PinPtr) &&
			reflect.DeepEqual(h.Weight, h2.Weight) &&
			reflect.DeepEqual(h.Owner, h2.Owner)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRoundTripGeneratedBipartite(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := gen.Bipartite(gen.FewgManyg, 1+rng.Intn(80), 4+rng.Intn(30), 1+rng.Intn(4), 1+rng.Intn(6), seed)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if WriteBipartite(&buf, g) != nil {
			return false
		}
		g2, err := ReadBipartite(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(g.Ptr, g2.Ptr) && reflect.DeepEqual(g.Adj, g2.Adj)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestLongHyperedgeLine: a valid hyperedge line longer than 4 MiB (a
// common line-scanner token cap, past which a scanner fails with "token
// too long") parses, through Parse and ReadHypergraph. Line length is
// not limited; the header's processor count, at most MaxDim, bounds how
// many processors a line may list.
func TestLongHyperedgeLine(t *testing.T) {
	const p = 700_000
	var sb strings.Builder
	sb.WriteString("hypergraph 1 " + strconv.Itoa(p) + " 1\n")
	line := len(sb.String())
	sb.WriteString("0 7 " + strconv.Itoa(p))
	for u := p - 1; u >= 0; u-- {
		sb.WriteString(" " + strconv.Itoa(u))
	}
	sb.WriteString("\n")
	src := sb.String()
	if n := len(src) - line; n <= 4<<20 {
		t.Fatalf("test line is %d bytes, want more than 4 MiB", n)
	}
	inst, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	h, err := ReadHypergraph(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ReadHypergraph: %v", err)
	}
	if !reflect.DeepEqual(inst, h) || h.NumPins() != p || h.EdgeProcs(0)[p-1] != p-1 {
		t.Fatalf("long line misread: %d pins", h.NumPins())
	}
	// One processor more than the instance has is refused before the
	// line is read, and the header's count stays capped at MaxDim.
	if _, err := Parse([]byte("hypergraph 1 3 1\n0 1 4 0 1 2 3\n")); err == nil {
		t.Fatal("hyperedge with more processors than the instance accepted")
	}
	if _, err := Parse([]byte("hypergraph 1 " + strconv.Itoa(MaxDim+1) + " 1\n0 1 1 0\n")); err == nil {
		t.Fatal("processor count above MaxDim accepted")
	}
}

// TestTokenizerVariants: what the tokenizer accepts beyond single spaces
// and '\n', and the integer edge cases it rejects.
func TestTokenizerVariants(t *testing.T) {
	want := "hypergraph 2 3 2\n0 4 2 0 2\n1 1 1 1\n"
	for _, src := range []string{
		"hypergraph 2 3 2\r\n0 4 2 0 2\r\n1 1 1 1\r\n",
		"hypergraph\t2\t3\t2\n\t0 4\t2 0 2\n1 1 1 1",
		"hypergraph +2 +3 +2\n+0 +4 +2 -0 +2\n+1 1 1 1\n",
		"# comment\n  # indented comment\n\nhypergraph 2 3 2\n\n0 4 2 0 2\n#\n1 1 1 1\n",
		"hypergraph 2 3 2\n0 0004 2 00 2\n1 1 1 1\n",
	} {
		inst, err := Parse([]byte(src))
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		var buf bytes.Buffer
		if err := WriteHypergraph(&buf, inst.(*hypergraph.Hypergraph)); err != nil {
			t.Fatal(err)
		}
		if buf.String() != want {
			t.Fatalf("%q read as %q", src, buf.String())
		}
	}
	for _, src := range []string{
		"# only a comment\n",
		"hypergraph 1 1 1\n0 1 1 0x0\n",
		"hypergraph 1 1 1\n0 9223372036854775808 1 0\n",  // weight overflows int64
		"bipartite 1 1 unit\n4294967296 0\n",             // task index overflows int32
		"bipartite 1 1 unit\n0 - \n",                     // sign without digits
		"hypergraph 1 1 1\n0 1 1 0 # trailing comment\n", // comments take whole lines
		"bipartite 1 1 unit extra\n0 0\n",
	} {
		if _, err := Parse([]byte(src)); err == nil {
			t.Fatalf("%q accepted", src)
		}
	}
}

// errReader yields its data, then a read error.
type errReader struct {
	data []byte
	err  error
}

func (r *errReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestReadErrorWins: ReadHypergraph reports the reader's error, not the
// truncated instance it would have caused.
func TestReadErrorWins(t *testing.T) {
	boom := errors.New("boom")
	_, err := ReadHypergraph(&errReader{data: []byte("hypergraph 2 2 2\n0 1 1 0\n"), err: boom})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the read error", err)
	}
}
