package encode

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"semimatch/internal/bipartite"
	"semimatch/internal/hypergraph"
)

// The parsers consume untrusted bytes (cmd/semisolve reads arbitrary
// paths, cmd/semiserve request bodies); fuzzing asserts that they never
// panic, that Parse and the io.Reader entry points agree, that anything
// they accept survives a write/read round trip unchanged, and that the
// fingerprint is the hash of the canonical form whichever route computes
// it.

// longLine is a hyperedge line of 20,000 processors (about 110 KiB),
// long enough that no fixed-size read buffer holds it.
func longLine() string {
	var sb strings.Builder
	sb.WriteString("hypergraph 1 20000 1\n0 3 20000")
	for p := 19999; p >= 0; p-- {
		sb.WriteString(" ")
		sb.WriteString(strconv.Itoa(p))
	}
	sb.WriteString("\n")
	return sb.String()
}

// addTextSeeds adds the seeds both text fuzzers share: line-end and
// blank variants, signs, comments, and an over-long line.
func addTextSeeds(f *testing.F) {
	f.Add("bipartite 2 2 unit\r\n0 0\r\n1 1\r\n")
	f.Add("hypergraph 2 3 3\r\n0 2 1 0\r\n0 1 2 1 2\r\n1 1 1 2\r\n")
	f.Add("bipartite\t2 2\tweighted\n0\t0\t5\n\t1 1 +3\n")
	f.Add("hypergraph\t1 2 1\n0\t+4\t2 +1\t0\n")
	f.Add("bipartite +2 +2 unit\n+0 +1\n-0 0\n")
	f.Add("# only a comment\n")
	f.Add("#\n  # indented comment\n\n")
	f.Add("   \n\t\n")
	f.Add("hypergraph 1 1 1\n0 9223372036854775807 1 0\n")
	f.Add("hypergraph 1 1 1\n0 9223372036854775808 1 0\n")
	f.Add("bipartite 1 1 weighted\n0 0 -9223372036854775808\n")
	f.Add("bipartite 1 4294967297 unit\n0 4294967296\n")
	f.Add(longLine())
}

func FuzzReadBipartite(f *testing.F) {
	f.Add("bipartite 2 2 unit\n0 0\n1 1\n")
	f.Add("bipartite 2 2 weighted\n0 0 5\n")
	f.Add("bipartite 2 2 weighted\n1 1 1\n0 0 1\n")
	f.Add("bipartite 0 0 unit\n")
	f.Add("# comment\nbipartite 1 1 unit\n\n0 0\n")
	f.Add("bipartite 1 1 float\n")
	f.Add("hypergraph 1 1 1\n0 1 1 0\n")
	f.Add("bipartite 99999999999 2 unit\n")
	addTextSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		g, err := ReadBipartite(strings.NewReader(src))
		inst, perr := Parse([]byte(src))
		if err != nil {
			if pg, ok := inst.(*bipartite.Graph); perr == nil && ok {
				t.Fatalf("Parse accepted what ReadBipartite rejected (%v): %+v", err, pg)
			}
			return
		}
		if perr != nil || !reflect.DeepEqual(inst, g) {
			t.Fatalf("Parse disagrees with ReadBipartite: %v", perr)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted invalid graph: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteBipartite(&buf, g); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		g2, err := ReadBipartite(&buf)
		if err != nil {
			t.Fatalf("round trip parse failed: %v", err)
		}
		if !reflect.DeepEqual(g.Ptr, g2.Ptr) || !reflect.DeepEqual(g.Adj, g2.Adj) || !reflect.DeepEqual(g.W, g2.W) {
			t.Fatal("round trip changed the graph")
		}
		fp, err := FingerprintBipartite(g)
		if err != nil {
			t.Fatalf("fingerprint: %v", err)
		}
		if fp2, err := FingerprintBipartite(g2); err != nil || fp2 != fp {
			t.Fatalf("Fingerprint(Read(Write(g))) = %s, %v; Fingerprint(g) = %s", fp2, err, fp)
		}
		canon, err := CanonicalBipartite(g)
		if err != nil {
			t.Fatalf("canonicalize: %v", err)
		}
		if fpc, err := FingerprintCanonicalBipartite(canon); err != nil || fpc != fp {
			t.Fatalf("FingerprintCanonical(Canonical(g)) = %s, %v; Fingerprint(g) = %s", fpc, err, fp)
		}
	})
}

func FuzzReadHypergraph(f *testing.F) {
	f.Add("hypergraph 1 1 1\n0 1 1 0\n")
	f.Add("hypergraph 2 3 3\n0 2 1 0\n0 1 2 1 2\n1 1 1 2\n")
	f.Add("hypergraph 2 3 3\n0 1 2 2 1\n1 1 1 2\n0 1 2 0 2\n")
	f.Add("hypergraph 1 1 0\n")
	f.Add("hypergraph 1 1 1\n0 1 2 0\n")
	f.Add("hypergraph -1 1 1\n")
	addTextSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		h, err := ReadHypergraph(strings.NewReader(src))
		inst, perr := Parse([]byte(src))
		if err != nil {
			if ph, ok := inst.(*hypergraph.Hypergraph); perr == nil && ok {
				t.Fatalf("Parse accepted what ReadHypergraph rejected (%v): %+v", err, ph)
			}
			return
		}
		if perr != nil || !reflect.DeepEqual(inst, h) {
			t.Fatalf("Parse disagrees with ReadHypergraph: %v", perr)
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("accepted invalid hypergraph: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteHypergraph(&buf, h); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		h2, err := ReadHypergraph(&buf)
		if err != nil {
			t.Fatalf("round trip parse failed: %v", err)
		}
		if !reflect.DeepEqual(h.Pins, h2.Pins) || !reflect.DeepEqual(h.Weight, h2.Weight) {
			t.Fatal("round trip changed the hypergraph")
		}
		fp, err := FingerprintHypergraph(h)
		if err != nil {
			t.Fatalf("fingerprint: %v", err)
		}
		if fp2, err := FingerprintHypergraph(h2); err != nil || fp2 != fp {
			t.Fatalf("Fingerprint(Read(Write(h))) = %s, %v; Fingerprint(h) = %s", fp2, err, fp)
		}
		canon, _, err := CanonicalHypergraph(h)
		if err != nil {
			t.Fatalf("canonicalize: %v", err)
		}
		if fpc, err := FingerprintCanonicalHypergraph(canon); err != nil || fpc != fp {
			t.Fatalf("FingerprintCanonical(Canonical(h)) = %s, %v; Fingerprint(h) = %s", fpc, err, fp)
		}
	})
}

// FuzzDetectKind: DetectKind never panics, names only the two formats,
// and agrees with the kind Parse builds whenever Parse succeeds.
func FuzzDetectKind(f *testing.F) {
	f.Add([]byte("bipartite 1 1 unit\n0 0\n"))
	f.Add([]byte("hypergraph 1 1 1\n0 1 1 0\n"))
	f.Add([]byte("# c\r\n\t hypergraph 1 1 0\r\n"))
	f.Add([]byte("bipartitex 1 1 unit\n"))
	f.Add([]byte("hypergraphhypergraph\n"))
	f.Add([]byte("#only\n#comments"))
	f.Add([]byte(""))
	f.Add([]byte("\x00bipartite"))
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, err := DetectKind(data)
		if err == nil && kind != "bipartite" && kind != "hypergraph" {
			t.Fatalf("DetectKind = %q", kind)
		}
		inst, perr := Parse(data)
		if perr != nil {
			return
		}
		if err != nil {
			t.Fatalf("Parse accepted what DetectKind rejected: %v", err)
		}
		want := "bipartite"
		if _, ok := inst.(*hypergraph.Hypergraph); ok {
			want = "hypergraph"
		}
		if kind != want {
			t.Fatalf("DetectKind = %q, Parse built a %s", kind, want)
		}
	})
}
