package exec_test

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/synth"
)

func rels(scores []float64) []float64 {
	var rn exec.RelNormalizer
	for _, s := range scores {
		rn.Observe(s)
	}
	out := make([]float64, len(scores))
	for i, s := range scores {
		out[i] = rn.Rel(s)
	}
	return out
}

func TestRelNormalizer(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scores []float64
		want   []float64
	}{
		{"max-normalized", []float64{10, 5, 2.5}, []float64{1, 0.5, 0.25}},
		{"zero floor kept", []float64{8, 0}, []float64{1, 0}},
		{"all zero", []float64{0, 0}, []float64{0, 0}},
		{"single hit", []float64{7}, []float64{1}},
		{"single zero hit", []float64{0}, []float64{0}},
		{"single negative hit", []float64{-4}, []float64{1}},
		{"all equal", []float64{3, 3, 3}, []float64{1, 1, 1}},
		{"all equal negative", []float64{-3, -3}, []float64{1, 1}},
		{"negative totals shift by the minimum", []float64{-1, -3, -5}, []float64{1, 0.5, 0}},
		{"range straddling zero", []float64{2, -2, 0}, []float64{1, 0, 0.5}},
	} {
		if got := rels(tc.scores); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: Rel(%v) = %v, want %v", tc.name, tc.scores, got, tc.want)
		}
	}

	// Whatever the sign of the totals, P(d|q) stays in [0,1], the best
	// hit gets 1 (unless every score is 0) and rank order is preserved.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		scores := make([]float64, 1+rng.Intn(30))
		shift := float64(rng.Intn(3)-1) * 40 // all negative, straddling, all positive
		for i := range scores {
			scores[i] = rng.Float64()*30 - 15 + shift
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
		got := rels(scores)
		if got[0] != 1 {
			t.Fatalf("scores %v: top hit has Rel %v", scores, got[0])
		}
		for i, r := range got {
			if r < 0 || r > 1 {
				t.Fatalf("scores %v: Rel[%d] = %v outside [0,1]", scores, i, r)
			}
			if i > 0 && (r > got[i-1] || (scores[i] < scores[i-1] && r == got[i-1] && r != 0)) {
				t.Fatalf("scores %v: Rel %v does not preserve rank order at %d", scores, got, i)
			}
		}
	}
}

// fused pushes the problem's candidates through a FusedState in rank
// order, as the engine's scan does, and returns the selection.
func fused(p *core.Problem, alg core.Algorithm, k int, aspects []core.Specialization) []core.Selected {
	fs := exec.NewFusedState(&exec.Plan{
		Mode: exec.ModeFused, Query: p.Query, Alg: alg, K: k, NumCandidates: len(p.Candidates),
		Lambda: p.Lambda, Threshold: p.Threshold, Aspects: aspects, Lex: p.Lex,
	}, len(p.Candidates))
	for _, d := range p.Candidates {
		fs.Push(d)
	}
	return fs.Finish()
}

// TestFusedStateMatchesStaged: streaming candidates through Push/Finish
// selects exactly what the staged algorithms select from the finished
// utility matrix of the same problem — every algorithm, k below, at and
// above the candidate count, with and without a threshold.
func TestFusedStateMatchesStaged(t *testing.T) {
	for _, spec := range []synth.ProblemSpec{
		{Seed: 1, N: 200, NumSpecs: 5, PerSpec: 12},
		{Seed: 2, N: 37, NumSpecs: 8, PerSpec: 20, UsefulProb: 0.8},
		{Seed: 3, N: 1, NumSpecs: 2, PerSpec: 3},
	} {
		for _, threshold := range []float64{0, 0.3} {
			p := synth.GenerateProblem(spec)
			p.Threshold = threshold
			u := core.ComputeUtilities(p)
			for _, k := range []int{0, 1, 10, spec.N, spec.N + 5} {
				p.K = k
				for alg, want := range map[core.Algorithm][]core.Selected{
					core.AlgOptSelect: core.OptSelect(p, u),
					core.AlgXQuAD:     core.XQuAD(p, u),
					core.AlgIASelect:  core.IASelect(p, u),
					core.AlgMMR:       core.MMR(p),
					core.AlgBaseline:  core.Baseline(p),
				} {
					got := fused(p, alg, k, p.Specs)
					if len(got) == 0 && len(want) == 0 {
						continue
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d c=%v k=%d %s: fused selection differs from staged\ngot  %v\nwant %v",
							spec.Seed, threshold, k, alg, core.IDs(got), core.IDs(want))
					}
				}
				// No aspects: every algorithm degrades to the baseline.
				if got, want := fused(p, core.AlgOptSelect, k, nil), core.Baseline(p); len(want) > 0 && !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d k=%d: aspect-less fused plan is not the baseline", spec.Seed, k)
				}
			}
		}
	}
}

// TestFusedStateCountsEvictions: the per-aspect heaps are bounded, so a
// candidate stream whose later documents score higher displaces entries
// and the process counter moves.
func TestFusedStateCountsEvictions(t *testing.T) {
	p := synth.GenerateProblem(synth.ProblemSpec{Seed: 4, N: 400, NumSpecs: 4, UsefulProb: 0.9})
	for i := range p.Candidates {
		p.Candidates[i].Rel = float64(i+1) / float64(len(p.Candidates))
	}
	before := exec.Stats().AspectHeapEvictions
	if sel := fused(p, core.AlgOptSelect, 5, p.Specs); len(sel) != 5 {
		t.Fatalf("selected %d documents, want 5", len(sel))
	}
	if after := exec.Stats().AspectHeapEvictions; after == before {
		t.Error("400 candidates through 5-deep heaps evicted nothing")
	}
}
