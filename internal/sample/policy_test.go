package sample_test

import (
	"testing"
	"testing/quick"

	"gnndrive/internal/gen"
	"gnndrive/internal/graph"
	"gnndrive/internal/sample"
	"gnndrive/internal/storage/sim"
	"gnndrive/internal/tensor"
)

func policyNeighbors() []int32 {
	return []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
}

func TestUniformPolicyBounds(t *testing.T) {
	rng := tensor.NewRNG(1)
	f := func(seed uint64, fanRaw uint8) bool {
		fan := int(fanRaw)%12 + 1
		ns := policyNeighbors()
		got := sample.UniformPolicy{}.Pick(0, ns, fan, rng)
		if fan >= 10 {
			return len(got) == 10
		}
		seen := map[int32]bool{}
		for _, u := range got {
			if u < 0 || u > 9 || seen[u] {
				return false
			}
			seen[u] = true
		}
		return len(got) == fan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTopDegreePolicyPicksHubs(t *testing.T) {
	deg := func(v int64) int64 { return v * v } // node 9 is the biggest hub
	p := sample.TopDegreePolicy{Degree: deg}
	got := p.Pick(0, policyNeighbors(), 3, nil)
	want := map[int32]bool{9: true, 8: true, 7: true}
	for _, u := range got {
		if !want[u] {
			t.Fatalf("top-degree picked %v", got)
		}
	}
}

func TestDegreeBiasedPolicyFavorsHubs(t *testing.T) {
	deg := func(v int64) int64 {
		if v == 9 {
			return 1000
		}
		return 1
	}
	p := sample.DegreeBiasedPolicy{Degree: deg}
	rng := tensor.NewRNG(7)
	hubPicked := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		got := p.Pick(0, policyNeighbors(), 2, rng)
		if len(got) != 2 {
			t.Fatalf("picked %d", len(got))
		}
		for _, u := range got {
			if u == 9 {
				hubPicked++
			}
		}
	}
	if hubPicked < trials*8/10 {
		t.Fatalf("hub picked only %d/%d times; bias not applied", hubPicked, trials)
	}
}

func TestFullPolicyKeepsAll(t *testing.T) {
	got := sample.FullPolicy{}.Pick(0, policyNeighbors(), 2, nil)
	if len(got) != 10 {
		t.Fatalf("full policy dropped neighbors: %d", len(got))
	}
}

func TestSamplerWithPolicyEndToEnd(t *testing.T) {
	ds, err := gen.BuildStandalone(gen.Tiny(), sim.InstantConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Dev.Close()
	for _, p := range []sample.Policy{sample.UniformPolicy{}, sample.FullPolicy{},
		sample.TopDegreePolicy{Degree: ds.Degree}, sample.DegreeBiasedPolicy{Degree: ds.Degree}} {
		s := sample.New(graph.NewRawReader(ds), []int{3, 3}, tensor.NewRNG(5)).WithPolicy(p)
		b, _, err := s.SampleBatch(0, []int64{1, 2, 3})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if len(b.Nodes) < 3 {
			t.Fatalf("%s: no expansion", p.Name())
		}
		// Structural sanity: endpoints in range.
		for _, l := range b.Layers {
			for i := range l.Src {
				if int(l.Src[i]) >= len(b.Nodes) || int(l.Dst[i]) >= len(b.Nodes) {
					t.Fatalf("%s: edge out of range", p.Name())
				}
			}
		}
	}
}

func TestWithNilPolicyPanics(t *testing.T) {
	ds, err := gen.BuildStandalone(gen.Tiny(), sim.InstantConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Dev.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sample.New(graph.NewRawReader(ds), []int{2}, tensor.NewRNG(1)).WithPolicy(nil)
}
