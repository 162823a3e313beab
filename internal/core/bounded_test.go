package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/textsim"
)

// boundedShape is one family of problems for the bounded-vs-full
// differential: every field is something a bound's proof leans on, or a
// way the heaps can fail to fill.
type boundedShape struct {
	n, specs, perSpec, k int
	lambda, c            float64
	// rel: how P(d|q) runs down the list.
	rel string // "sorted" | "flat" | "random" | "shifted" (unsorted, negative values)
	// ties: every third candidate repeats its predecessor's vector and
	// relevance, so overall scores tie exactly and only rank decides.
	ties bool
	// members: share of candidates that are a result of some R_q′ (the
	// similarity-1 rule; SpecBounds' corr path).
	members float64
	// zeros: share of candidates and results with an empty vector.
	zeros float64
	// negative: one result vector carries a negative weight (ρ* must turn
	// itself off).
	negative bool
	// barren: the last specialization shares no term with any candidate,
	// so its heap never fills and nothing may be skipped.
	barren bool
	// tinyProb: the last specialization's probability is so small its
	// quota is 0 (a heap of one).
	tinyProb bool
}

// boundedProblem draws a problem of the given shape. Candidates share a
// small vocabulary with the R_q′ lists so utilities are dense and varied.
func boundedProblem(rng *rand.Rand, sh boundedShape) *Problem {
	vocab := func(j int) []string {
		terms := []string{"shared", "common"}
		for t := 0; t < 6; t++ {
			terms = append(terms, fmt.Sprintf("s%02dt%d", j, t))
		}
		return terms
	}
	// randBag draws a bag of 1–6 terms, each occurring 1–3 times; or,
	// with probability zero, the empty bag.
	randBag := func(terms []string, zero float64) []string {
		if rng.Float64() < zero {
			return nil
		}
		var bag []string
		for t := rng.Intn(6) + 1; t > 0; t-- {
			term := terms[rng.Intn(len(terms))]
			for c := rng.Intn(3) + 1; c > 0; c-- {
				bag = append(bag, term)
			}
		}
		return bag
	}

	specs := make([]Specialization, sh.specs)
	specToks := make([][][]string, sh.specs)
	probSum := 0.0
	for j := range specs {
		terms := vocab(j)
		if sh.barren && j == sh.specs-1 {
			terms = []string{"barren0", "barren1", "barren2"}
		}
		results := make([]SpecResult, sh.perSpec)
		specToks[j] = make([][]string, sh.perSpec)
		for r := range results {
			rank := r + 1
			if rng.Intn(7) == 0 {
				rank = 0 // the rank fallback
			}
			results[r] = SpecResult{ID: fmt.Sprintf("s%02d-r%02d", j, r), Rank: rank}
			specToks[j][r] = randBag(terms, sh.zeros)
		}
		prob := rng.Float64() + 0.1
		if sh.tinyProb && j == sh.specs-1 {
			prob = 1e-4
		}
		probSum += prob
		specs[j] = Specialization{Query: fmt.Sprintf("spec %d", j), Prob: prob, Results: results}
	}
	for j := range specs {
		specs[j].Prob /= probSum
	}
	if sh.negative {
		specToks[0][0] = []string{"shared", "shared", "s00t0"} // s00t0's weight is negated below
	}

	cands := make([]Doc, sh.n)
	candToks := make([][]string, sh.n)
	for i := range cands {
		j := rng.Intn(sh.specs)
		if sh.barren && j == sh.specs-1 {
			j = 0
		}
		d := Doc{ID: fmt.Sprintf("d%04d", i), Rank: i + 1}
		candToks[i] = randBag(vocab(j), sh.zeros)
		switch sh.rel {
		case "sorted":
			d.Rel = 1 - 0.0005*float64(i) // slow: dozens of candidates stay within λ of the top
		case "flat":
			d.Rel = 0.5
		case "random":
			d.Rel = rng.Float64()
		case "shifted":
			d.Rel = rng.Float64()*1.5 - 0.75
		}
		if rng.Float64() < sh.members {
			res := specs[j].Results
			d.ID = res[rng.Intn(len(res))].ID // may repeat: the same document twice in R_q is the caller's business
		}
		if sh.ties && i%3 == 2 {
			d.Rel, candToks[i] = cands[i-1].Rel, candToks[i-1]
		}
		cands[i] = d
	}
	p := withVectors(&Problem{
		Query: "bounded", Candidates: cands, Specs: specs,
		K: sh.k, Lambda: sh.lambda, Threshold: sh.c,
	}, candToks, specToks)
	if sh.negative {
		// Negating a weight leaves the norm as it was.
		iv := &specs[0].Results[0].IVec
		neg := p.Lex.Intern("s00t0")
		for t, id := range iv.IDs {
			if id == neg {
				iv.Weights[t] = -iv.Weights[t]
			}
		}
	}
	return p
}

// specBounds is the SpecBounds of a list set as the serving cache builds
// them: through the lists' aspect index.
func specBounds(specs []Specialization) *SpecBounds {
	return NewAspectIndex(specs).Bounds(specs)
}

// boundedVsFull runs both selections on p — the bounded one over a copy
// whose candidates get their vectors through vec, as the serving route's
// do — and fails unless they agree exactly. It returns how many
// candidates the bounded pass evaluated.
func boundedVsFull(t testing.TB, p *Problem) int {
	t.Helper()
	want := OptSelect(p, ComputeUtilities(p))

	lazy := *p
	lazy.Candidates = make([]Doc, len(p.Candidates))
	for i, d := range p.Candidates {
		d.IVec = textsim.IVector{}
		lazy.Candidates[i] = d
	}
	built := 0
	got, work, err := OptSelectBounded(context.Background(), &lazy, specBounds(lazy.Specs),
		func(i int, _ *textsim.Slab) (textsim.IVector, error) { built++; return p.Candidates[i].IVec, nil })
	if err != nil {
		t.Fatal(err)
	}
	evaluated := work.Evaluated
	if built != evaluated {
		t.Fatalf("%d vectors built for %d candidates evaluated", built, evaluated)
	}
	if work.Walked < evaluated || work.Walked > len(p.Candidates) {
		t.Fatalf("walked %d candidates of %d, evaluated %d", work.Walked, len(p.Candidates), evaluated)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("bounded OptSelect diverges from OptSelect(p, ComputeUtilities(p)) (evaluated %d of %d)\nwant %+v\ngot  %+v",
			evaluated, len(p.Candidates), want, got)
	}
	// Vectors already on the candidates (vec nil) is the same selection.
	eager, again, err := OptSelectBounded(context.Background(), p, specBounds(p.Specs), nil)
	if err != nil || again != work || !reflect.DeepEqual(eager, want) {
		t.Fatalf("vec=nil: evaluated %d (lazy pass %d), err %v, equal %v", again.Evaluated, evaluated, err, reflect.DeepEqual(eager, want))
	}
	// So is the artifact form — result vectors dropped, one aspect index
	// and its bounds built before — shared by 8 selections at once.
	art := artifactForm(p)
	b := art.Aspects.Bounds(art.Specs)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, n, err := OptSelectBounded(context.Background(), art, b, nil)
			if err != nil || n != work || !reflect.DeepEqual(got, want) {
				t.Errorf("artifact form: evaluated %d (lazy pass %d), err %v, equal %v", n.Evaluated, evaluated, err, reflect.DeepEqual(got, want))
			}
		}()
	}
	wg.Wait()
	return evaluated
}

// TestBoundedOptSelectMatchesFull: the served selection must be the
// oracle's, bit for bit, wherever a bound's proof has an edge — and the
// bounds must actually fire where they can, or a silently disabled bound
// would pass every equality.
func TestBoundedOptSelectMatchesFull(t *testing.T) {
	base := boundedShape{n: 300, specs: 4, perSpec: 10, k: 10, lambda: 0.15, rel: "sorted"}
	with := func(f func(*boundedShape)) boundedShape { sh := base; f(&sh); return sh }
	for _, tc := range []struct {
		name string
		sh   boundedShape
		// fires: the pass must skip something; full: it must skip nothing.
		fires, full bool
	}{
		{"sorted relevance", base, true, false},
		{"flat relevance", with(func(s *boundedShape) { s.rel = "flat" }), false, true},
		{"exact ties", with(func(s *boundedShape) { s.ties = true }), true, false},
		{"unsorted relevance", with(func(s *boundedShape) { s.rel = "random" }), false, false},
		{"unsorted negative-shifted relevance", with(func(s *boundedShape) { s.rel = "shifted" }), false, false},
		{"members of R_q′", with(func(s *boundedShape) { s.members = 0.3 }), true, false},
		{"members, flat relevance", with(func(s *boundedShape) { s.members = 0.3; s.rel = "flat" }), false, false},
		{"zero-norm vectors", with(func(s *boundedShape) { s.zeros = 0.3 }), true, false},
		{"negative weight", with(func(s *boundedShape) { s.negative = true }), true, false},
		{"k >= n", with(func(s *boundedShape) { s.n, s.k = 20, 50 }), false, true},
		{"k = 1", with(func(s *boundedShape) { s.k = 1 }), true, false},
		{"k = 100", with(func(s *boundedShape) { s.k = 100; s.n = 1000 }), true, false},
		{"a heap that never fills", with(func(s *boundedShape) { s.barren = true }), false, true},
		{"quota 0", with(func(s *boundedShape) { s.tinyProb = true }), true, false},
		{"c = 0.3", with(func(s *boundedShape) { s.c = 0.3 }), false, false},
		{"lambda = 0", with(func(s *boundedShape) { s.lambda = 0 }), true, false},
		{"lambda = 1", with(func(s *boundedShape) { s.lambda = 1 }), false, false},
		{"lambda = 1, members", with(func(s *boundedShape) { s.lambda = 1; s.members = 0.5 }), false, false},
		{"one specialization", with(func(s *boundedShape) { s.specs = 1 }), true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			fired := 0
			for trial := 0; trial < 25; trial++ {
				p := boundedProblem(rng, tc.sh)
				evaluated := boundedVsFull(t, p)
				if evaluated < len(p.Candidates) {
					fired++
				}
			}
			if tc.fires && fired < 25 {
				t.Errorf("the bound fired on %d of 25 problems, want all", fired)
			}
			if tc.full && fired > 0 {
				t.Errorf("the bound fired on %d of 25 problems it cannot hold on", fired)
			}
		})
	}

	// Seeded random shapes: every combination the table did not name.
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 400; trial++ {
		boundedVsFull(t, boundedProblem(rng, randomShape(rng)))
	}
}

func randomShape(rng *rand.Rand) boundedShape {
	pick := func(xs ...float64) float64 { return xs[rng.Intn(len(xs))] }
	return boundedShape{
		n: rng.Intn(200) + 1, specs: rng.Intn(5) + 1, perSpec: rng.Intn(8) + 1, k: rng.Intn(40) + 1,
		lambda: pick(0, 0.15, 0.15, 0.5, 1), c: pick(0, 0, 0.3),
		rel:     []string{"sorted", "sorted", "flat", "random", "shifted"}[rng.Intn(5)],
		ties:    rng.Intn(3) == 0,
		members: pick(0, 0.1, 0.5), zeros: pick(0, 0, 0.2),
		negative: rng.Intn(5) == 0, barren: rng.Intn(6) == 0, tinyProb: rng.Intn(4) == 0,
	}
}

// TestSpecBoundsHold checks the two inequalities themselves — the proof's
// claims, not their consequence for the SERP: no candidate's λ-term may
// exceed lambdaTerm for its ID, and ρ* must be off when a weight is
// negative.
func TestSpecBoundsHold(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		sh := randomShape(rng)
		p := boundedProblem(rng, sh)
		b := specBounds(p.Specs)
		if sh.negative && b.rho < b.ceil {
			t.Fatalf("trial %d: ρ* = %v stays on over a negative weight", trial, b.rho)
		}
		u := ComputeUtilities(p)
		for i, d := range p.Candidates {
			sum := 0.0
			for j := range p.Specs {
				sum += p.Specs[j].Prob * u.U[i][j]
			}
			if ub := b.lambdaTerm(p.Specs, d.ID); sum > ub*(1+1e-12) {
				t.Fatalf("trial %d candidate %d (%s): λ-term %v over its bound %v (ρ* %v, ceiling %v)", trial, i, d.ID, sum, ub, b.rho, b.ceil)
			}
		}
	}
}

// TestSpecBoundsDeterministic: ρ* is summed over terms in ascending order,
// so the bounds of the same lists — through a rebuilt aspect index or the
// same one — have the same bits every time. (Summed in a map's iteration
// order, 5 lists of 20 changed their last bit within 50 rebuilds.)
func TestSpecBoundsDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := aspectProblem(rng, 5, 20, 1, 16) // IDF weights
		want := specBounds(p.Specs)
		if math.IsInf(want.rho, 1) {
			t.Fatalf("seed %d: ρ* is off", seed)
		}
		ix := NewAspectIndex(p.Specs)
		for i := 0; i < 50; i++ {
			if !sameBounds(t, fmt.Sprintf("seed %d, rebuild %d", seed, i), specBounds(p.Specs), want) ||
				!sameBounds(t, fmt.Sprintf("seed %d, index %d", seed, i), ix.Bounds(p.Specs), want) {
				break
			}
		}
	}
}

// FuzzBoundedOptSelect lets the fuzzer pick the shape; the property is
// the table's.
func FuzzBoundedOptSelect(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(4), uint8(10), uint8(10), uint8(1), uint8(0), uint8(0))
	f.Add(int64(2), uint16(40), uint8(1), uint8(3), uint8(50), uint8(2), uint8(1), uint8(0xff))
	f.Add(int64(3), uint16(999), uint8(5), uint8(20), uint8(100), uint8(0), uint8(3), uint8(0x15))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, specs, perSpec, k, lambda, rel, flags uint8) {
		sh := boundedShape{
			n: int(n)%1200 + 1, specs: int(specs)%6 + 1, perSpec: int(perSpec)%24 + 1, k: int(k) + 1,
			lambda: []float64{0, 0.15, 1, 0.5}[lambda%4],
			rel:    []string{"sorted", "flat", "random", "shifted"}[rel%4],
			ties:   flags&1 != 0, negative: flags&2 != 0, barren: flags&4 != 0, tinyProb: flags&8 != 0,
		}
		if flags&16 != 0 {
			sh.c = 0.3
		}
		if flags&32 != 0 {
			sh.members = 0.3
		}
		if flags&64 != 0 {
			sh.zeros = 0.2
		}
		boundedVsFull(t, boundedProblem(rand.New(rand.NewSource(seed)), sh))
	})
}

// pollBudget cancels itself after a fixed number of Err() polls; Done()
// stays nil, so only the loop's own polling can see it (the shape of the
// root package's countdownContext).
type pollBudget struct {
	context.Context
	remaining atomic.Int64
}

func (c *pollBudget) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestBoundedOptSelectCancellation lands a cancellation on every poll of
// the candidate walk: the call must end with ctx's error or with the full
// answer, and a later call must be unharmed by the state an aborted one
// handed back to the pools. A vec error ends it the same way.
func TestBoundedOptSelectCancellation(t *testing.T) {
	// Flat relevance: nothing is skipped, so the walk polls n/64 times.
	p := boundedProblem(rand.New(rand.NewSource(24)), boundedShape{n: 400, specs: 3, perSpec: 8, k: 10, lambda: 0.15, rel: "flat"})
	b := specBounds(p.Specs)
	want := OptSelect(p, ComputeUtilities(p))

	canceled, completed := 0, 0
	for m := int64(0); m <= 8; m++ {
		ctx := &pollBudget{Context: context.Background()}
		ctx.remaining.Store(m)
		got, _, err := OptSelectBounded(ctx, p, b, nil)
		switch {
		case err != nil:
			if !errors.Is(err, context.Canceled) || got != nil {
				t.Fatalf("budget %d: err = %v, selection %v; want context.Canceled and nothing", m, err, got)
			}
			canceled++
		case !reflect.DeepEqual(got, want):
			t.Fatalf("budget %d: uncanceled pass diverges", m)
		default:
			completed++
		}
	}
	if canceled == 0 || completed == 0 {
		t.Fatalf("%d budgets canceled, %d completed: the sweep must see both", canceled, completed)
	}

	boom := errors.New("no vector")
	got, work, err := OptSelectBounded(context.Background(), p, b, func(i int, _ *textsim.Slab) (textsim.IVector, error) {
		if i == 37 {
			return textsim.IVector{}, boom
		}
		return p.Candidates[i].IVec, nil
	})
	if !errors.Is(err, boom) || got != nil || work.Evaluated != 37 {
		t.Fatalf("vec error: err = %v, selection %v, evaluated %d; want the error, nothing, 37", err, got, work.Evaluated)
	}
	if got, _, err := OptSelectBounded(context.Background(), p, b, nil); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("after aborted passes: err %v, equal %v", err, reflect.DeepEqual(got, want))
	}
}
