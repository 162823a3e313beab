package textsim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/text"
)

// randomVector builds a Vector from a random multiset over a shared
// vocabulary, optionally IDF-reweighted, mirroring how the engine builds
// snippet surrogates.
func randomVector(rng *rand.Rand, vocab []string, maxLen int, idf IDF) Vector {
	n := rng.Intn(maxLen + 1)
	tokens := make([]string, n)
	for i := range tokens {
		tokens[i] = vocab[rng.Intn(len(vocab))]
	}
	v := FromTokens(tokens)
	if idf != nil {
		v = idf.Apply(v)
	}
	return v
}

// TestInternedOpsBitIdentical is the property-based differential test of
// the tentpole guarantee: under a sorted-base lexicon, every interned
// similarity equals its string-path twin bit for bit (==, not within an
// epsilon), because the merge visits components in the same order.
func TestInternedOpsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vocab := make([]string, 200)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("term%03d", rng.Intn(500))
	}
	idf := IDF{}
	for _, tm := range vocab {
		idf[tm] = 1 + rng.Float64()*3
	}
	lex := NewSortedLexicon(vocab)

	for iter := 0; iter < 2000; iter++ {
		var table IDF
		if iter%2 == 1 {
			table = idf
		}
		a := randomVector(rng, vocab, 40, table)
		b := randomVector(rng, vocab, 40, table)
		ia := Intern(lex, a)
		ib := Intern(lex, b)

		if got, want := ia.Dot(ib), Dot(a, b); got != want {
			t.Fatalf("iter %d: Dot mismatch: interned %v, string %v (diff %g)", iter, got, want, got-want)
		}
		if got, want := ia.Cosine(ib), Cosine(a, b); got != want {
			t.Fatalf("iter %d: Cosine mismatch: interned %v, string %v (diff %g)", iter, got, want, got-want)
		}
		if got, want := ia.Distance(ib), Distance(a, b); got != want {
			t.Fatalf("iter %d: Distance mismatch: interned %v, string %v", iter, got, want)
		}
		if got, want := ia.Norm(), a.Norm(); got != want {
			t.Fatalf("iter %d: norm not copied bitwise: %v vs %v", iter, got, want)
		}
	}
}

// TestInternOverflowStillCorrect exercises the dynamic-overflow region: a
// lexicon seeded with only part of the vocabulary must still produce
// mathematically correct similarities (tolerance comparison — overflow IDs
// may reorder the accumulation).
func TestInternOverflowStillCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vocab := make([]string, 120)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%03d", i)
	}
	lex := NewSortedLexicon(vocab[:40]) // 2/3 of the vocabulary is overflow

	for iter := 0; iter < 500; iter++ {
		a := randomVector(rng, vocab, 30, nil)
		b := randomVector(rng, vocab, 30, nil)
		ia := Intern(lex, a)
		ib := Intern(lex, b)

		if !sort.SliceIsSorted(ia.IDs, func(i, j int) bool { return ia.IDs[i] < ia.IDs[j] }) {
			t.Fatalf("iter %d: interned IDs not sorted: %v", iter, ia.IDs)
		}
		if got, want := ia.Cosine(ib), Cosine(a, b); math.Abs(got-want) > 1e-12 {
			t.Fatalf("iter %d: overflow cosine off: %v vs %v", iter, got, want)
		}
	}
}

func TestLexiconRoundTrip(t *testing.T) {
	lex := NewSortedLexicon([]string{"cherry", "apple", "banana", "apple"})
	if lex.SortedLen() != 3 {
		t.Fatalf("SortedLen = %d after dedup, want 3", lex.SortedLen())
	}
	// Base region is lexicographic.
	for i, term := range []string{"apple", "banana", "cherry"} {
		if got := lex.Intern(term); got != int32(i) {
			t.Errorf("Intern(%q) = %d, want %d", term, got, i)
		}
	}
	if lex.Len() != 3 {
		t.Errorf("Len = %d before any overflow, want 3", lex.Len())
	}
	d := lex.Intern("durian")
	if d != 3 {
		t.Errorf("first overflow ID = %d, want 3", d)
	}
	if lex.Intern("durian") != d {
		t.Error("re-interning changed the ID")
	}
	if lex.Len() != 4 {
		t.Errorf("Len = %d, want 4", lex.Len())
	}
}

// TestLexiconConcurrentIntern hammers Intern from many goroutines; run
// under -race this is the safety net for the engine's shared lexicon.
func TestLexiconConcurrentIntern(t *testing.T) {
	lex := NewSortedLexicon([]string{"a", "b", "c"})
	var wg sync.WaitGroup
	ids := make([][]int32, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids[g] = make([]int32, 64)
			for i := range ids[g] {
				ids[g][i] = lex.Intern(fmt.Sprintf("shared%02d", i%16))
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < 8; g++ {
		for i := range ids[g] {
			if ids[g][i] != ids[0][i] {
				t.Fatalf("goroutine %d got ID %d for token %d, goroutine 0 got %d",
					g, ids[g][i], i, ids[0][i])
			}
		}
	}
	if lex.Len() != 3+16 {
		t.Errorf("Len = %d, want 19", lex.Len())
	}
}

// dfTable is a DocFreqSource over a fixed dictionary.
type dfTable struct {
	docs int
	df   []int
}

func (d dfTable) NumTerms() int   { return len(d.df) }
func (d dfTable) NumDocs() int    { return d.docs }
func (d dfTable) DF(id int32) int { return d.df[id] }

// mapIDF is the oracle's IDF table over dictionary terms with d's
// frequencies: what ComputeIDFFromIndex(d) holds, keyed by string.
func (d dfTable) mapIDF(terms []string) IDF {
	df := make(map[string]int, len(terms))
	for id, term := range terms {
		df[term] = d.df[id]
	}
	return ComputeIDF(df, d.docs)
}

// TestInternSortedMatchesIntern: counting term numbers straight into an
// interned vector gives the bits of the string route — FromTokens, Apply,
// Intern — both in the lexicon's own numbering and through a translation
// table whose overflow IDs arrive out of string order; and so does
// InternTokens over the same occurrences as text.
func TestInternSortedMatchesIntern(t *testing.T) {
	base := []string{"apple", "fox", "mango", "zebra"}
	lex := WrapSortedTerms(base)
	src := dfTable{docs: 50, df: []int{3, 0, 17, 50}}
	idf, oracle := ComputeIDFFromIndex(src), src.mapIDF(base)

	// A second dictionary (a flushed segment's): sorted, partly outside
	// the base. Its late terms reach the lexicon first.
	other := []string{"aardvark", "apple", "banana", "yak", "zebra"}
	lex.Intern("yak")
	lex.Intern("banana")
	lex.Intern("aardvark")
	xlat := make([]int32, len(other))
	for i, term := range other {
		xlat[i] = lex.Intern(term)
	}

	var slab Slab
	for _, tc := range []struct {
		dict  []string
		xlat  []int32
		terms []int32 // sorted occurrences
	}{
		{base, nil, []int32{0, 0, 0, 2, 3, 3}},
		{base, nil, []int32{1}}, // df 0: weighs 1
		{base, nil, nil},
		{other, xlat, []int32{0, 1, 1, 2, 3, 3, 3, 4}},
		{other, xlat, []int32{2, 3}},
	} {
		var tokens []string
		for _, id := range tc.terms {
			tokens = append(tokens, tc.dict[id])
		}
		want := Intern(lex, oracle.Apply(FromTokens(tokens)))
		got := idf.InternSorted(tc.terms, tc.xlat, nil)
		if !reflect.DeepEqual(got.IDs, want.IDs) || !reflect.DeepEqual(got.Weights, want.Weights) || got.Norm() != want.Norm() {
			t.Errorf("terms %v: InternSorted %v %v |%v|, want %v %v |%v|", tokens, got.IDs, got.Weights, got.Norm(), want.IDs, want.Weights, want.Norm())
		}
		if carved := idf.InternSorted(tc.terms, tc.xlat, &slab); !reflect.DeepEqual(carved, got) {
			t.Errorf("terms %v: carved out of a slab %+v, allocated %+v", tokens, carved, got)
		}
		// The same bag as text, in reverse order.
		slices.Reverse(tokens)
		if got := idf.InternTokens(lex, tokens); !reflect.DeepEqual(got, want) {
			t.Errorf("tokens %v: InternTokens %v %v |%v|, want %v %v |%v|", tokens, got.IDs, got.Weights, got.Norm(), want.IDs, want.Weights, want.Norm())
		}
	}
}

// FuzzInternTokens: for any bag of tokens — duplicates, non-ASCII text,
// terms outside the dictionary (overflow, some of them interned earlier
// and out of string order), a base term with df 0, the empty bag —
// InternTokens under engine IDF and under unit weights gives exactly the
// string route's vector, norm included, each side on a lexicon of its own
// with the same history.
func FuzzInternTokens(f *testing.F) {
	base := []string{"alpha", "beta", "café", "delta", "zero", "東京"}
	src := dfTable{docs: 50, df: []int{3, 50, 1, 17, 0, 9}}
	f.Add("", "", false)
	f.Add("", "alpha alpha beta zero zero", false)
	f.Add("yak banana", "banana yak alpha aardvark aardvark zebra", false)
	f.Add("", "café 東京 naïve данные café Ǆungla", false)
	f.Add("zz a", "alpha zz beta a a", true)
	f.Fuzz(func(t *testing.T, earlier, text string, unit bool) {
		idf, oracle := ComputeIDFFromIndex(src), src.mapIDF(base)
		if unit {
			idf, oracle = SliceIDF{}, IDF{}
		}
		lex, oracleLex := WrapSortedTerms(base), WrapSortedTerms(base)
		for _, term := range strings.Fields(earlier) {
			lex.Intern(term)
			oracleLex.Intern(term)
		}
		tokens := strings.Fields(text)
		want := Intern(oracleLex, oracle.Apply(FromTokens(tokens)))
		if got := idf.InternTokens(lex, tokens); !reflect.DeepEqual(got, want) {
			t.Fatalf("tokens %q after %q: InternTokens %v %v |%v|, want %v %v |%v|",
				tokens, earlier, got.IDs, got.Weights, got.Norm(), want.IDs, want.Weights, want.Norm())
		}
	})
}

// TestSliceIDFMatchesMapIDF: the ID-indexed IDF table weighs analyzed text
// with the same float64 bits as the map path over the same collection's
// document frequencies, including out-of-collection terms falling back to
// weight 1.
func TestSliceIDFMatchesMapIDF(t *testing.T) {
	an := text.NewAnalyzer()
	docs := []string{
		"Apple pie with cinnamon and sugar",
		"The Leopard 2 main battle tank of the German army",
		"Apple released the Leopard operating system",
		"A leopard is a wild cat of the savanna",
	}
	df := map[string]int{}
	for _, d := range docs {
		seen := map[string]bool{}
		for _, term := range an.Tokens(d) {
			if !seen[term] {
				seen[term] = true
				df[term]++
			}
		}
	}
	dict := make([]string, 0, len(df))
	for term := range df {
		dict = append(dict, term)
	}
	slices.Sort(dict)
	src := dfTable{docs: len(docs), df: make([]int, len(dict))}
	for id, term := range dict {
		src.df[id] = df[term]
	}
	idf, legacy := ComputeIDFFromIndex(src), ComputeIDF(df, len(docs))
	lex, oracleLex := WrapSortedTerms(dict), WrapSortedTerms(dict)
	for _, s := range []string{
		"apple pie with cinnamon sugar crust",
		"leopard tank armor cannon",
		"completely unindexed surprising zebra words",
		"apple apple apple leopard",
		"",
	} {
		toks := an.Tokens(s)
		want := Intern(oracleLex, legacy.Apply(FromTokens(toks)))
		if got := idf.InternTokens(lex, toks); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: %v %v |%v|, want %v %v |%v|", s, got.IDs, got.Weights, got.Norm(), want.IDs, want.Weights, want.Norm())
		}
	}
}

// TestSlabCarving: vectors carved out of one slab equal the allocated
// ones, each has cap == len — so an append to one reallocates it instead
// of writing into the next — and the slab grows in doubling chunks from
// slabMin entries, one chunk (two allocations) at a time.
func TestSlabCarving(t *testing.T) {
	idf := ComputeIDFFromIndex(dfTable{docs: 10, df: []int{1, 2, 3, 4, 5, 6, 7, 8}})
	rng := rand.New(rand.NewSource(3))
	bags := make([][]int32, 400)
	for i := range bags {
		for j := rng.Intn(12); j >= 0; j-- {
			bags[i] = append(bags[i], int32(rng.Intn(8)))
		}
		slices.Sort(bags[i])
	}
	var slab Slab
	carved := make([]IVector, len(bags))
	for i, bag := range bags {
		carved[i] = idf.InternSorted(bag, nil, &slab)
		if cap(carved[i].IDs) != len(carved[i].IDs) || cap(carved[i].Weights) != len(carved[i].Weights) {
			t.Fatalf("bag %d: carved vector has len %d cap %d/%d", i, carved[i].Len(), cap(carved[i].IDs), cap(carved[i].Weights))
		}
	}
	for i := range carved[:len(carved)-1] {
		next := slices.Clone(carved[i+1].IDs)
		carved[i].IDs = append(carved[i].IDs, 99)
		carved[i].Weights = append(carved[i].Weights, 99)
		if !slices.Equal(carved[i+1].IDs, next) {
			t.Fatalf("appending to vector %d changed vector %d", i, i+1)
		}
	}
	for i, bag := range bags {
		want := idf.InternSorted(bag, nil, nil)
		got := carved[i]
		got.IDs, got.Weights = got.IDs[:want.Len()], got.Weights[:want.Len()]
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("bag %v: carved %+v, allocated %+v", bag, got, want)
		}
	}

	// 100 vectors of 8 distinct terms: 800 entries, chunks of 256 and 512
	// hold 32 + 64 vectors, the 1024-entry third chunk the rest.
	all := []int32{0, 1, 2, 3, 4, 5, 6, 7}
	allocs := testing.AllocsPerRun(5, func() {
		var s Slab
		for i := 0; i < 100; i++ {
			idf.InternSorted(all, nil, &s)
		}
		if cap(s.ids) != 4*slabMin || len(s.ids) != 8*(100-32-64) {
			t.Fatalf("third chunk holds %d of %d entries", len(s.ids), cap(s.ids))
		}
	})
	if allocs != 6 {
		t.Fatalf("100 vectors out of a fresh slab made %v allocations, want 6", allocs)
	}
}

// TestSlabReset: a slab reset before every vector — the bounded
// selection's scratch — carves each over the one before, so once its
// chunk fits the largest bag it allocates nothing, and every vector read
// before the next Reset equals the allocated one.
func TestSlabReset(t *testing.T) {
	idf := ComputeIDFFromIndex(dfTable{docs: 10, df: []int{1, 2, 3, 4, 5, 6, 7, 8}})
	rng := rand.New(rand.NewSource(5))
	bags := make([][]int32, 200)
	for i := range bags {
		for j := rng.Intn(3 * slabMin); j >= 0; j-- {
			bags[i] = append(bags[i], int32(rng.Intn(8)))
		}
		slices.Sort(bags[i])
	}
	var slab Slab
	check := func() {
		for _, bag := range bags {
			slab.Reset()
			if got, want := idf.InternSorted(bag, nil, &slab), idf.InternSorted(bag, nil, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("bag of %d: carved after Reset %+v, allocated %+v", len(bag), got, want)
			}
		}
	}
	check()
	if allocs := testing.AllocsPerRun(5, func() {
		for _, bag := range bags {
			slab.Reset()
			idf.InternSorted(bag, nil, &slab)
		}
	}); allocs != 0 {
		t.Fatalf("200 vectors out of a warm, reset slab made %v allocations, want 0", allocs)
	}
	check()
}
