package encode

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"semimatch/internal/bipartite"
	"semimatch/internal/hypergraph"
)

// goldenFingerprints pins the fingerprints of the instances under
// testdata/golden. Disk-cache entries and peers running other versions
// key results by these hashes, so they must never change. Each
// *-shuffled.txt file is an isomorphic restatement of its namesake —
// lines in another order, processors of a hyperedge in another order,
// and the unit instance written as "weighted" with every weight 1 — and
// shares its hash.
var goldenFingerprints = map[string]string{
	"multiproc.txt":                    "0fa65326e7af9773b9639468885ed9056f183ab1cac487db871bcbf49d876a32",
	"multiproc-shuffled.txt":           "0fa65326e7af9773b9639468885ed9056f183ab1cac487db871bcbf49d876a32",
	"singleproc-unit.txt":              "d50d3f4b4450af3475473c8798a5c3fc5b4b1f0495eb7563ad4db632499434b1",
	"singleproc-unit-shuffled.txt":     "d50d3f4b4450af3475473c8798a5c3fc5b4b1f0495eb7563ad4db632499434b1",
	"singleproc-weighted.txt":          "858a8a988c417f0aff7d7fc27ef334774bd4647d119961a5a2e4d73a1429712b",
	"singleproc-weighted-shuffled.txt": "858a8a988c417f0aff7d7fc27ef334774bd4647d119961a5a2e4d73a1429712b",
}

func TestGoldenFingerprints(t *testing.T) {
	for name, want := range goldenFingerprints {
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", "golden", name))
			if err != nil {
				t.Fatal(err)
			}
			inst, err := Parse(data)
			if err != nil {
				t.Fatal(err)
			}
			// Every route to the hash: the one-call fingerprint, the
			// canonical form hashed separately, and the canonical form
			// through the one-call fingerprint's already-canonical path.
			var got [3]string
			var errs [3]error
			switch v := inst.(type) {
			case *hypergraph.Hypergraph:
				got[0], errs[0] = FingerprintHypergraph(v)
				canon, _, err := CanonicalHypergraph(v)
				if err != nil {
					t.Fatal(err)
				}
				got[1], errs[1] = FingerprintCanonicalHypergraph(canon)
				got[2], errs[2] = FingerprintHypergraph(canon)
			case *bipartite.Graph:
				got[0], errs[0] = FingerprintBipartite(v)
				canon, err := CanonicalBipartite(v)
				if err != nil {
					t.Fatal(err)
				}
				got[1], errs[1] = FingerprintCanonicalBipartite(canon)
				got[2], errs[2] = FingerprintBipartite(canon)
			}
			for i := range got {
				if errs[i] != nil {
					t.Fatalf("route %d: %v", i, errs[i])
				}
				if got[i] != want {
					t.Errorf("route %d: fingerprint %s, want %s", i, got[i], want)
				}
			}
		})
	}
}

// TestGoldenFilesRoundTrip: writing a parsed golden instance reproduces
// the generator's bytes, so the writer emits exactly the text the
// fingerprints were taken over.
func TestGoldenFilesRoundTrip(t *testing.T) {
	for _, name := range []string{"multiproc.txt", "singleproc-unit.txt", "singleproc-weighted.txt"} {
		data, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if err != nil {
			t.Fatal(err)
		}
		inst, err := Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		switch v := inst.(type) {
		case *hypergraph.Hypergraph:
			err = WriteHypergraph(&buf, v)
		case *bipartite.Graph:
			err = WriteBipartite(&buf, v)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Errorf("%s: written text differs from the file", name)
		}
	}
}
