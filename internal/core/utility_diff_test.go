package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/stats"
	"repro/internal/textsim"
)

// computeUtilitiesReference is the pre-accumulator implementation of
// ComputeUtilities — the per-pair string-vector merge join — kept verbatim
// as the differential oracle: the interned accumulator rewrite must
// reproduce this matrix bit for bit.
func computeUtilitiesReference(p *Problem) *Utilities {
	n := len(p.Candidates)
	s := len(p.Specs)
	u := &Utilities{
		U:       make([][]float64, n),
		Overall: make([]float64, n),
	}
	flat := make([]float64, n*s)

	norm := make([]float64, s)
	for j, spec := range p.Specs {
		norm[j] = stats.Harmonic(len(spec.Results))
	}

	for i := range p.Candidates {
		row := flat[i*s : (i+1)*s : (i+1)*s]
		d := &p.Candidates[i]
		for j := range p.Specs {
			spec := &p.Specs[j]
			if len(spec.Results) == 0 || norm[j] == 0 {
				continue
			}
			sum := 0.0
			for r := range spec.Results {
				dr := &spec.Results[r]
				var sim float64
				if dr.ID == d.ID {
					sim = 1
				} else {
					sim = textsim.Cosine(d.Vector, dr.Vector)
				}
				if sim <= 0 {
					continue
				}
				rank := dr.Rank
				if rank <= 0 {
					rank = r + 1
				}
				sum += sim / float64(rank)
			}
			util := sum / norm[j]
			if util < p.Threshold {
				util = 0
			}
			row[j] = util
		}
		u.U[i] = row
		u.Overall[i] = overallScore(p, row, d.Rel)
	}
	return u
}

// randomProblem builds a random diversification problem with string
// vectors only (the legacy construction), exercising shared-term overlap,
// same-ID candidate/result pairs, zero vectors, rank fallbacks, and a
// threshold.
func randomDiffProblem(rng *rand.Rand) *Problem {
	vocab := make([]string, 60)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("t%02d", rng.Intn(90))
	}
	randVec := func(maxLen int) textsim.Vector {
		n := rng.Intn(maxLen + 1)
		toks := make([]string, n)
		for i := range toks {
			toks[i] = vocab[rng.Intn(len(vocab))]
		}
		return textsim.FromTokens(toks)
	}

	s := rng.Intn(5) + 1
	specs := make([]Specialization, s)
	probSum := 0.0
	for j := range specs {
		nr := rng.Intn(8) // occasionally zero results
		results := make([]SpecResult, nr)
		for r := range results {
			rank := r + 1
			if rng.Intn(5) == 0 {
				rank = 0 // exercise the rank fallback
			}
			results[r] = SpecResult{
				ID:     fmt.Sprintf("s%02d-r%02d", j, r),
				Rank:   rank,
				Vector: randVec(12),
			}
		}
		prob := rng.Float64() + 0.05
		probSum += prob
		specs[j] = Specialization{Query: fmt.Sprintf("spec %d", j), Prob: prob, Results: results}
	}
	for j := range specs {
		specs[j].Prob /= probSum
	}

	n := rng.Intn(40) + 5
	cands := make([]Doc, n)
	for i := range cands {
		id := fmt.Sprintf("d%03d", i)
		if rng.Intn(10) == 0 && s > 0 && len(specs[0].Results) > 0 {
			// Same document appears in a specialization's results.
			id = specs[0].Results[rng.Intn(len(specs[0].Results))].ID
		}
		cands[i] = Doc{
			ID:     id,
			Rank:   i + 1,
			Rel:    rng.Float64(),
			Vector: randVec(12),
		}
	}

	return &Problem{
		Query:      "diff test",
		Candidates: cands,
		Specs:      specs,
		K:          rng.Intn(n+5) + 1,
		Lambda:     0.15,
		Threshold:  []float64{0, 0, 0.2, 0.5}[rng.Intn(4)],
	}
}

// TestComputeUtilitiesMatchesReference is the tentpole differential test:
// on random problems, the interned accumulator scorer must reproduce the
// legacy per-pair merge-join matrix exactly (==, not within an epsilon).
func TestComputeUtilitiesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 300; trial++ {
		p := randomDiffProblem(rng)
		want := computeUtilitiesReference(p)
		got := ComputeUtilities(p)
		for i := range want.U {
			if want.Overall[i] != got.Overall[i] {
				t.Fatalf("trial %d: Overall[%d] = %v, reference %v (diff %g)",
					trial, i, got.Overall[i], want.Overall[i], got.Overall[i]-want.Overall[i])
			}
			for j := range want.U[i] {
				if want.U[i][j] != got.U[i][j] {
					t.Fatalf("trial %d: U[%d][%d] = %v, reference %v (diff %g)",
						trial, i, j, got.U[i][j], want.U[i][j], got.U[i][j]-want.U[i][j])
				}
			}
		}
	}
}

// TestDiversifyBitIdenticalToReference runs every algorithm on the pooled
// Diversify path — and OptSelect on the bounded path the serving route
// takes — and on the reference utilities, asserting the selections agree
// document-for-document with equal ranks and bitwise-equal scores — the
// end-to-end guarantee the serving cache's Diversify-equivalence contract
// needs.
func TestDiversifyBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		p := randomDiffProblem(rng)
		ref := computeUtilitiesReference(p)
		for _, alg := range Algorithms {
			var want []Selected
			switch alg {
			case AlgBaseline:
				want = Baseline(p)
			case AlgOptSelect:
				want = OptSelect(p, ref)
			case AlgXQuAD:
				want = XQuAD(p, ref)
			case AlgIASelect:
				want = IASelect(p, ref)
			case AlgMMR:
				want = MMR(p)
			}
			routes := map[string][]Selected{"Diversify": Diversify(alg, p)}
			if alg == AlgOptSelect {
				bounded, _, err := OptSelectBounded(context.Background(), p, NewSpecBounds(p.Specs), nil)
				if err != nil {
					t.Fatal(err)
				}
				routes["OptSelectBounded"] = bounded
			}
			for route, got := range routes {
				if len(got) != len(want) {
					t.Fatalf("trial %d %s via %s: %d selected, reference %d", trial, alg, route, len(got), len(want))
				}
				for i := range want {
					if got[i].ID != want[i].ID || got[i].Rank != want[i].Rank || got[i].Score != want[i].Score {
						t.Fatalf("trial %d %s via %s sel %d: (%s, rank %d, %v) != reference (%s, rank %d, %v)",
							trial, alg, route, i, got[i].ID, got[i].Rank, got[i].Score, want[i].ID, want[i].Rank, want[i].Score)
					}
				}
			}
		}
	}
}

// TestDiversifyConcurrentPooledScratch hammers the pooled utility
// matrices and scratch buffers from many goroutines — the shape of the
// serving worker pool — and checks results stay correct and isolated.
// Run under -race this is the safety net for the sync.Pool plumbing.
func TestDiversifyConcurrentPooledScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	problems := make([]*Problem, 6)
	want := make([][]Selected, len(problems))
	for i := range problems {
		problems[i] = randomDiffProblem(rng)
		problems[i].EnsureInterned() // shared problems must be pre-interned
		want[i] = Diversify(AlgOptSelect, problems[i])
	}
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 30; iter++ {
				i := (g + iter) % len(problems)
				got := Diversify(AlgOptSelect, problems[i])
				if len(got) != len(want[i]) {
					errc <- fmt.Errorf("problem %d: %d selected, want %d", i, len(got), len(want[i]))
					return
				}
				for x := range got {
					if got[x].ID != want[i][x].ID || got[x].Score != want[i][x].Score {
						errc <- fmt.Errorf("problem %d sel %d: (%s,%v) != (%s,%v)",
							i, x, got[x].ID, got[x].Score, want[i][x].ID, want[i][x].Score)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
