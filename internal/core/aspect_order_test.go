package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/textsim"
)

// refOrder is the ordering step of the index build as it was before it
// counted: one integer sort of the keys, then a comparison sort of every
// term's postings by weight bits, then a pass that counts the terms and
// their runs of equal weight. The oracle the radix order is pinned to.
func refOrder(sc *aspectSort) (nt, nr int) {
	keys := sc.keys
	slices.Sort(keys)
	wbits := func(k uint64) uint64 { return math.Float64bits(sc.w[uint32(k)]) }
	byWeight := func(x, y uint64) int {
		if c := cmp.Compare(wbits(x), wbits(y)); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	}
	for a := 0; a < len(keys); {
		b := a + 1
		for b < len(keys) && keys[b]>>32 == keys[a]>>32 {
			b++
		}
		if b-a > 1 {
			slices.SortFunc(keys[a:b], byWeight)
		}
		a = b
	}
	for i, k := range keys {
		if i == 0 || k>>32 != keys[i-1]>>32 {
			nt++
			nr++
		} else if wbits(k) != wbits(keys[i-1]) {
			nr++
		}
	}
	return nt, nr
}

// refAspectIndex builds specs' index with the comparison-sort order.
func refAspectIndex(specs []Specialization) *AspectIndex {
	var sc aspectSort
	sc.collect(specs)
	nt, nr := refOrder(&sc)
	ix := new(AspectIndex)
	ix.assemble(specs, &sc, nt, nr)
	return ix
}

// spreadLexicon is a lexicon of 100 000 terms whose vocabulary for the
// generator below is every 2 503rd: term IDs differ in three bytes, so
// every radix pass runs.
var spreadLexicon = func() *textsim.Lexicon {
	terms := make([]string, 100_000)
	for i := range terms {
		terms[i] = fmt.Sprintf("t%06d", i)
	}
	return textsim.WrapSortedTerms(terms)
}()

type flatDF int

func (n flatDF) NumTerms() int   { return int(n) }
func (n flatDF) NumDocs() int    { return 1000 }
func (n flatDF) DF(id int32) int { return 1 + int(id)%97 }

// radixSpecs draws a specialization set for the order differential:
// repeated tokens (several weights a term), empty and zero-norm results,
// the same result ID in several lists, and now and then a negative
// weight; the vocabulary is spread over the lexicon or packed at its
// start.
func radixSpecs(rng *rand.Rand) []Specialization {
	idf := textsim.ComputeIDFFromIndex(flatDF(spreadLexicon.Len()))
	step := 2503
	if rng.Intn(3) == 0 {
		step = 1
	}
	vocab := make([]string, 12+rng.Intn(40))
	for i := range vocab {
		vocab[i] = fmt.Sprintf("t%06d", (i*step+rng.Intn(2))%100_000)
	}
	specs := make([]Specialization, rng.Intn(9))
	for j := range specs {
		results := make([]SpecResult, rng.Intn(25))
		for r := range results {
			id := fmt.Sprintf("s%d-r%02d", j, r)
			if rng.Intn(3) == 0 {
				id = fmt.Sprintf("r%02d", rng.Intn(30))
			}
			var toks []string
			for c := rng.Intn(14); c > 0; c-- {
				toks = append(toks, vocab[rng.Intn(len(vocab))])
			}
			results[r] = SpecResult{ID: id, Rank: r + 1, IVec: idf.InternTokens(spreadLexicon, toks)}
			if iv := results[r].IVec; iv.Len() > 0 && rng.Intn(200) == 0 {
				iv.Weights[0] = -iv.Weights[0]
			}
		}
		specs[j] = Specialization{Query: fmt.Sprintf("spec %d", j), Prob: 1 / float64(len(specs)), Results: results}
	}
	return specs
}

// manyWeights is one term in 24 results, r+1 times in result r: 24
// distinct weights for one term.
func manyWeights() []Specialization {
	idf := textsim.ComputeIDFFromIndex(flatDF(spreadLexicon.Len()))
	results := make([]SpecResult, 24)
	for r := range results {
		toks := []string{"t050000", "t000007"}
		for c := 0; c <= r; c++ {
			toks = append(toks, "t000001")
		}
		results[r] = SpecResult{ID: fmt.Sprintf("r%02d", r), Rank: r + 1, IVec: idf.InternTokens(spreadLexicon, toks)}
	}
	return []Specialization{{Query: "many", Prob: 1, Results: results}}
}

// TestAspectIndexRadixMatchesSort pins the counted build to the sorted
// one: over 500 drawn specialization sets, the index and its bounds are
// reflect.DeepEqual to what the comparison-sort build gives, and the
// bounds' members come in the order the sort.Slice they were sorted with
// before gave them.
func TestAspectIndexRadixMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := -1; trial < 500; trial++ {
		specs := radixSpecs(rng)
		if trial < 0 {
			specs = manyWeights()
		}
		got, want := NewAspectIndex(specs), refAspectIndex(specs)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: radix index\n%+v\nsort index\n%+v", trial, got, want)
		}
		gb, wb := got.Bounds(specs), want.Bounds(specs)
		if !reflect.DeepEqual(gb, wb) {
			t.Fatalf("trial %d: bounds %+v, want %+v", trial, gb, wb)
		}
		if gb.members == nil {
			continue
		}
		var members []specRef
		for j := range specs {
			for r := range specs[j].Results {
				members = append(members, specRef{uint16(j), uint16(r)})
			}
		}
		old := &SpecBounds{members: members}
		sort.Slice(members, func(x, y int) bool { return old.id(specs, x) < old.id(specs, y) })
		if !slices.Equal(gb.members, members) {
			t.Fatalf("trial %d: members %v, sort.Slice order %v", trial, gb.members, members)
		}
	}
}
