package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"semimatch/internal/bipartite"
	"semimatch/internal/encode"
	"semimatch/internal/hypergraph"
)

// digest renders everything a plan sends, in order.
func digest(p *plan) []byte {
	var b bytes.Buffer
	for _, list := range [][]op{p.warm, p.ops} {
		for _, o := range list {
			fmt.Fprintf(&b, "%d %s %d %d\n", o.kind, o.path, o.inst, o.sess)
			b.Write(o.body)
		}
	}
	return b.Bytes()
}

func TestPlansDeterministic(t *testing.T) {
	plans := map[string]func(seed int64) (*plan, error){
		"hit":     func(s int64) (*plan, error) { return planHit(s, 6) },
		"paper":   func(s int64) (*plan, error) { return planPaper(s, 3) },
		"exact":   func(s int64) (*plan, error) { return planExact(s, 8) },
		"session": func(s int64) (*plan, error) { return planSession(s, 10) },
	}
	for name, build := range plans {
		t.Run(name, func(t *testing.T) {
			a, err := build(7)
			if err != nil {
				t.Fatal(err)
			}
			b, err := build(7)
			if err != nil {
				t.Fatal(err)
			}
			c, err := build(8)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(digest(a), digest(b)) {
				t.Error("same seed gave different op lists")
			}
			if bytes.Equal(digest(a), digest(c)) {
				t.Error("different seeds gave identical op lists")
			}
		})
	}
}

func TestRestatementsKeepFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, shape := range exactShapes {
		in, err := shape.build(rng, 20)
		if err != nil {
			t.Fatal(err)
		}
		orig, _ := in.body(nil)
		restated, edgeMap := in.body(rng)
		if bytes.Equal(orig, restated) {
			t.Errorf("%s: restatement kept the bytes", shape.name)
		}
		a, err := parseBody(orig)
		if err != nil {
			t.Fatal(err)
		}
		b, err := parseBody(restated)
		if err != nil {
			t.Fatal(err)
		}
		fa, fb := fingerprintOf(t, a), fingerprintOf(t, b)
		if fa != fb {
			t.Errorf("%s: restatement changed the fingerprint", shape.name)
		}
		if in.h == nil {
			continue
		}
		// The map sends every posted hyperedge to an identical one.
		hb := b.(*hypergraph.Hypergraph)
		for e := int32(0); int(e) < hb.NumEdges(); e++ {
			o := edgeMap[e]
			got := fmt.Sprint(hb.Owner[e], hb.Weight[e], hb.EdgeProcs(e))
			want := fmt.Sprint(in.h.Owner[o], in.h.Weight[o], in.h.EdgeProcs(o))
			if got != want {
				t.Fatalf("%s: posted edge %d is %s, the map names %s", shape.name, e, got, want)
			}
		}
	}
}

func TestHotSetRestatements(t *testing.T) {
	p, err := planHit(1, 24)
	if err != nil {
		t.Fatal(err)
	}
	multi, single := 0, 0
	for i, o := range p.ops {
		in := p.instances[o.inst]
		orig, _ := in.body(nil)
		if i%2 == 0 {
			if !bytes.Equal(o.body, orig) {
				t.Errorf("op %d: repeat is not byte-identical", i)
			}
			continue
		}
		if in.h != nil {
			multi++
		} else {
			single++
		}
		a, err := parseBody(orig)
		if err != nil {
			t.Fatal(err)
		}
		b, err := parseBody(o.body)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(o.body, orig) || fingerprintOf(t, a) != fingerprintOf(t, b) {
			t.Errorf("op %d: restatement must change the bytes and keep the fingerprint", i)
		}
	}
	if multi == 0 || single == 0 {
		t.Fatalf("restatements: %d MULTIPROC, %d SINGLEPROC; want both classes", multi, single)
	}
}

func fingerprintOf(t *testing.T, inst any) string {
	t.Helper()
	c, err := canonical(inst)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := fingerprint(c)
	if err != nil {
		t.Fatal(err)
	}
	var direct string
	switch v := inst.(type) {
	case *bipartite.Graph:
		direct, err = encode.FingerprintBipartite(v)
	case *hypergraph.Hypergraph:
		direct, err = encode.FingerprintHypergraph(v)
	}
	if err != nil || direct != fp {
		t.Fatalf("encode.Fingerprint* = %q, %v; canonical route %q", direct, err, fp)
	}
	return fp
}

func TestSessionOpsImplyLiveCounts(t *testing.T) {
	p, err := planSession(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	live := map[string]bool{}
	arrive, depart := 0, 0
	for _, o := range p.ops {
		if o.kind != opSessionEvent {
			continue
		}
		var ev struct {
			Op   string `json:"op"`
			ID   string `json:"id"`
			Task *struct {
				ID string `json:"id"`
			} `json:"task"`
		}
		if err := json.Unmarshal(o.body, &ev); err != nil {
			t.Fatal(err)
		}
		switch ev.Op {
		case "arrive":
			live[ev.Task.ID] = true
			arrive++
		case "depart":
			delete(live, ev.ID)
			depart++
		}
		if len(live) != o.live {
			t.Fatalf("event %d: %d live, op says %d", o.seq, len(live), o.live)
		}
	}
	if got := len(p.ops); got != sessionEvents+2 {
		t.Errorf("one session is %d ops, want %d", got, sessionEvents+2)
	}
	if arrive == 0 || depart == 0 || strings.Count(string(digest(p)), `"reweigh"`) == 0 {
		t.Errorf("script lacks a kind of event: %d arrivals, %d departures", arrive, depart)
	}
}
