package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/stats"
	"repro/internal/textsim"
)

// computeUtilitiesReference is the pre-accumulator implementation of
// ComputeUtilities — one IVector.Cosine merge join per pair — kept as the
// differential oracle: the accumulator scorer must reproduce this matrix
// bit for bit.
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
					sim = d.IVec.Cosine(dr.IVec)
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

// randomDiffProblem builds a random diversification problem, exercising
// shared-term overlap, same-ID candidate/result pairs, zero vectors, rank
// fallbacks, and a threshold.
func randomDiffProblem(rng *rand.Rand) *Problem {
	vocab := make([]string, 60)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("t%02d", rng.Intn(90))
	}
	randToks := func(maxLen int) []string {
		n := rng.Intn(maxLen + 1)
		toks := make([]string, n)
		for i := range toks {
			toks[i] = vocab[rng.Intn(len(vocab))]
		}
		return toks
	}

	s := rng.Intn(5) + 1
	specs := make([]Specialization, s)
	specToks := make([][][]string, s)
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
				ID:   fmt.Sprintf("s%02d-r%02d", j, r),
				Rank: rank,
			}
			specToks[j] = append(specToks[j], randToks(12))
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
	candToks := make([][]string, n)
	for i := range cands {
		id := fmt.Sprintf("d%03d", i)
		if rng.Intn(10) == 0 && s > 0 && len(specs[0].Results) > 0 {
			// Same document appears in a specialization's results.
			id = specs[0].Results[rng.Intn(len(specs[0].Results))].ID
		}
		cands[i] = Doc{
			ID:   id,
			Rank: i + 1,
			Rel:  rng.Float64(),
		}
		candToks[i] = randToks(12)
	}

	return withVectors(&Problem{
		Query:      "diff test",
		Candidates: cands,
		Specs:      specs,
		K:          rng.Intn(n+5) + 1,
		Lambda:     0.15,
		Threshold:  []float64{0, 0, 0.2, 0.5}[rng.Intn(4)],
	}, candToks, specToks)
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
				bounded, _, err := OptSelectBounded(context.Background(), p, specBounds(p.Specs), nil)
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

// artifactForm returns p as the serving cache holds it: the aspect index
// built once while the results had their vectors, then the vectors
// dropped. Candidates are shared with p.
func artifactForm(p *Problem) *Problem {
	art := *p
	art.Aspects = NewAspectIndex(p.Specs)
	art.Specs = make([]Specialization, len(p.Specs))
	for j, s := range p.Specs {
		s.Results = slices.Clone(s.Results)
		for r := range s.Results {
			s.Results[r].IVec = textsim.IVector{}
		}
		art.Specs[j] = s
	}
	return &art
}

// sameUtilities reports whether got has want's rows and overall scores,
// bit for bit, and says where it does not.
func sameUtilities(t testing.TB, what string, got, want *Utilities) bool {
	t.Helper()
	if len(got.U) != len(want.U) {
		t.Errorf("%s: %d rows, want %d", what, len(got.U), len(want.U))
		return false
	}
	for i := range want.U {
		if math.Float64bits(got.Overall[i]) != math.Float64bits(want.Overall[i]) {
			t.Errorf("%s: Overall[%d] = %v, want %v", what, i, got.Overall[i], want.Overall[i])
			return false
		}
		for j := range want.U[i] {
			if math.Float64bits(got.U[i][j]) != math.Float64bits(want.U[i][j]) {
				t.Errorf("%s: U[%d][%d] = %v, want %v", what, i, j, got.U[i][j], want.U[i][j])
				return false
			}
		}
	}
	return true
}

// sameBounds reports whether two SpecBounds agree bit for bit, and says
// where they do not.
func sameBounds(t testing.TB, what string, got, want *SpecBounds) bool {
	t.Helper()
	if math.Float64bits(got.rho) != math.Float64bits(want.rho) ||
		math.Float64bits(got.ceil) != math.Float64bits(want.ceil) ||
		!slices.Equal(got.members, want.members) {
		t.Errorf("%s: bounds (ρ* %v, ceil %v, %d members), want (ρ* %v, ceil %v, %d members)",
			what, got.rho, got.ceil, len(got.members), want.rho, want.ceil, len(want.members))
		return false
	}
	return true
}

// TestAspectIndexSharedMatchesVectors is the artifact form's differential:
// every random problem scored through one aspect index, built once with
// the result vectors and then dropped, by 8 goroutines at once, must give
// ComputeUtilities' rows and overall scores from the vectors, every
// algorithm's SERP, and the bounded OptSelect's, bit for bit. Run under
// -race: the index is shared the way concurrent cache hits share it.
func TestAspectIndexSharedMatchesVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 120; trial++ {
		p := randomDiffProblem(rng)
		want := ComputeUtilities(p)
		sel := map[Algorithm][]Selected{}
		for _, alg := range Algorithms {
			sel[alg] = Diversify(alg, p)
		}
		bounded, evaluated, err := OptSelectBounded(context.Background(), p, specBounds(p.Specs), nil)
		if err != nil {
			t.Fatal(err)
		}
		art := artifactForm(p)
		b := art.Aspects.Bounds(art.Specs)
		if !sameBounds(t, fmt.Sprintf("trial %d", trial), b, specBounds(p.Specs)) {
			return
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sameUtilities(t, fmt.Sprintf("trial %d", trial), ComputeUtilities(art), want)
				for _, alg := range Algorithms {
					if got := Diversify(alg, art); !reflect.DeepEqual(got, sel[alg]) {
						t.Errorf("trial %d %s: %v through the index, %v from vectors", trial, alg, IDs(got), IDs(sel[alg]))
					}
				}
				got, n, err := OptSelectBounded(context.Background(), art, b, nil)
				if err != nil || n != evaluated || !reflect.DeepEqual(got, bounded) {
					t.Errorf("trial %d OptSelectBounded: %v (%d evaluated, err %v), from vectors %v (%d)", trial, IDs(got), n.Evaluated, err, IDs(bounded), evaluated.Evaluated)
				}
			}()
		}
		wg.Wait()
	}
}

// dfTable is a DocFreqSource of made-up document frequencies, so vectors
// carry IDF weights rather than bare counts.
type dfTable []int

func (d dfTable) NumTerms() int   { return len(d) }
func (d dfTable) NumDocs() int    { return 1000 }
func (d dfTable) DF(id int32) int { return d[id] }

// aspectProblem draws a problem for FuzzAspectIndex. flags: 1 empties
// every third list, 2 gives some results an empty (zero-norm) vector, 4
// reuses result IDs across lists, 8 makes some candidates results, 16
// weighs terms by IDF, 32 negates one weight, 64 gives candidates terms
// no result has; 128 sets the threshold.
func aspectProblem(rng *rand.Rand, nSpecs, perSpec, n int, flags uint8) *Problem {
	vocab := make([]string, 24)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("t%02d", i)
	}
	bag := func(outside bool) []string {
		var toks []string
		for c := rng.Intn(8); c > 0; c-- {
			toks = append(toks, vocab[rng.Intn(len(vocab))])
		}
		if outside {
			toks = append(toks, fmt.Sprintf("x%02d", rng.Intn(6)))
		}
		return toks
	}
	specs := make([]Specialization, nSpecs)
	specToks := make([][][]string, nSpecs)
	for j := range specs {
		m := perSpec
		if flags&1 != 0 && j%3 == 0 {
			m = 0
		}
		results := make([]SpecResult, m)
		specToks[j] = make([][]string, m)
		for r := range results {
			id := fmt.Sprintf("s%d-r%02d", j, r)
			if flags&4 != 0 {
				id = fmt.Sprintf("r%02d", r)
			}
			results[r] = SpecResult{ID: id, Rank: r + 1}
			if flags&2 == 0 || rng.Intn(4) != 0 {
				specToks[j][r] = bag(false)
			}
		}
		specs[j] = Specialization{Query: fmt.Sprintf("spec %d", j), Prob: 1 / float64(nSpecs), Results: results}
	}
	cands := make([]Doc, n)
	candToks := make([][]string, n)
	for i := range cands {
		cands[i] = Doc{ID: fmt.Sprintf("d%03d", i), Rank: i + 1, Rel: rng.Float64()}
		if flags&8 != 0 && nSpecs > 0 && rng.Intn(3) == 0 {
			if res := specs[rng.Intn(nSpecs)].Results; len(res) > 0 {
				cands[i].ID = res[rng.Intn(len(res))].ID
			}
		}
		candToks[i] = bag(flags&64 != 0)
	}
	p := withVectors(&Problem{Query: "aspects", Candidates: cands, Specs: specs, K: 10, Lambda: 0.15}, candToks, specToks)
	if flags&128 != 0 {
		p.Threshold = 0.3
	}
	if flags&16 != 0 {
		df := make(dfTable, p.Lex.Len())
		for i := range df {
			df[i] = rng.Intn(1000)
		}
		idf := textsim.ComputeIDFFromIndex(df)
		for i, toks := range candToks {
			p.Candidates[i].IVec = idf.InternTokens(p.Lex, toks)
		}
		for j := range specToks {
			for r, toks := range specToks[j] {
				p.Specs[j].Results[r].IVec = idf.InternTokens(p.Lex, toks)
			}
		}
	}
	if flags&32 != 0 {
		for j := range p.Specs {
			if rs := p.Specs[j].Results; len(rs) > 0 && rs[0].IVec.Len() > 0 {
				rs[0].IVec.Weights[0] = -rs[0].IVec.Weights[0] // the norm stays as it was
				break
			}
		}
	}
	return p
}

// FuzzAspectIndex: any specialization set — empty lists, zero-norm
// results, the same document in several lists, candidates with terms no
// result has, IDF and negative weights — scores through its aspect index,
// with the result vectors dropped, exactly as through pairwise cosines of
// the vectors; and the bounds it gives, without the vectors, hold.
func FuzzAspectIndex(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(20), uint8(30), uint8(0))
	f.Add(int64(2), uint8(0), uint8(0), uint8(5), uint8(0xff))
	f.Add(int64(3), uint8(6), uint8(1), uint8(50), uint8(0x7f))
	f.Add(int64(4), uint8(3), uint8(8), uint8(12), uint8(0x17))
	f.Fuzz(func(t *testing.T, seed int64, specs, perSpec, n, flags uint8) {
		p := aspectProblem(rand.New(rand.NewSource(seed)), int(specs)%8, int(perSpec)%24, int(n)%64+1, flags)
		want := computeUtilitiesReference(p)
		art := artifactForm(p)
		b := art.Aspects.Bounds(art.Specs)
		if !sameUtilities(t, "from vectors", ComputeUtilities(p), want) ||
			!sameUtilities(t, "through the index", ComputeUtilities(art), want) ||
			!sameBounds(t, "bounds without the vectors", b, specBounds(p.Specs)) {
			return
		}
		for i, d := range p.Candidates {
			sum := 0.0
			for j := range p.Specs {
				sum += p.Specs[j].Prob * want.U[i][j]
			}
			if ub := b.lambdaTerm(art.Specs, d.ID); sum > ub*(1+1e-12) {
				t.Fatalf("candidate %d (%s): λ-term %v over its bound %v", i, d.ID, sum, ub)
			}
		}
	})
}

// TestProblemWithoutLexKeepsVectors: the algorithms read a problem's
// vectors and never rebuild them, so a problem whose builder set every
// IVec but no Lex selects what the same problem with its Lex selects, and
// still holds the same vectors afterwards.
func TestProblemWithoutLexKeepsVectors(t *testing.T) {
	build := func() *Problem {
		car, cat := []string{"jaguar", "car", "engine"}, []string{"jaguar", "cat", "jungle"}
		return withVectors(&Problem{
			Query: "jaguar",
			Candidates: []Doc{
				{ID: "car1", Rank: 1, Rel: 1},
				{ID: "car2", Rank: 2, Rel: 0.95}, // car1's twin
				{ID: "cat1", Rank: 3, Rel: 0.9},
			},
			Specs: []Specialization{
				{Query: "jaguar car", Prob: 0.5, Results: []SpecResult{{ID: "s-car", Rank: 1}}},
				{Query: "jaguar cat", Prob: 0.5, Results: []SpecResult{{ID: "s-cat", Rank: 1}}},
			},
			K: 2, Lambda: 0.5, Threshold: 0.5,
		}, [][]string{car, car, cat}, [][][]string{{car}, {cat}})
	}
	withLex, noLex := build(), build()
	noLex.Lex = nil
	for _, alg := range []Algorithm{AlgOptSelect, AlgXQuAD, AlgIASelect, AlgMMR} {
		want := Diversify(alg, withLex)
		if ids := IDs(want); ids[1] != "cat1" {
			t.Fatalf("%s with Lex selects %v: the problem no longer tells the intents apart", alg, ids)
		}
		if got := Diversify(alg, noLex); !reflect.DeepEqual(got, want) {
			t.Errorf("%s without Lex selects %v, with Lex %v", alg, IDs(got), IDs(want))
		}
	}
	got, _, err := OptSelectBounded(context.Background(), noLex, specBounds(noLex.Specs), nil)
	if want := OptSelect(withLex, ComputeUtilities(withLex)); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("OptSelectBounded without Lex selects %v (err %v), OptSelect with Lex %v", IDs(got), err, IDs(want))
	}
	fresh := build()
	if !reflect.DeepEqual(noLex.Candidates, fresh.Candidates) || !reflect.DeepEqual(noLex.Specs, fresh.Specs) {
		t.Error("selection changed the problem's vectors")
	}
}

// TestSharedProblemConcurrentSelection: nothing here writes to the problem
// it is handed, so one problem — without a Lex, as a builder may leave it —
// serves every algorithm from many goroutines at once, each getting the
// serial answer. Run under -race.
func TestSharedProblemConcurrentSelection(t *testing.T) {
	p := randomDiffProblem(rand.New(rand.NewSource(8)))
	p.Lex = nil
	want := map[Algorithm][]Selected{}
	for _, alg := range Algorithms {
		want[alg] = Diversify(alg, p)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, alg := range Algorithms {
				if got := Diversify(alg, p); !reflect.DeepEqual(got, want[alg]) {
					t.Errorf("%s: concurrent selection %v, serial %v", alg, IDs(got), IDs(want[alg]))
				}
			}
			got, _, err := OptSelectBounded(context.Background(), p, specBounds(p.Specs), nil)
			if err != nil || !reflect.DeepEqual(got, want[AlgOptSelect]) {
				t.Errorf("OptSelectBounded: concurrent selection %v (err %v), serial %v", IDs(got), err, IDs(want[AlgOptSelect]))
			}
		}()
	}
	wg.Wait()
}
