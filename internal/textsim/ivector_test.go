package textsim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
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
		if got, want := ia.Jaccard(ib), Jaccard(a, b); got != want {
			t.Fatalf("iter %d: Jaccard mismatch: interned %v, string %v", iter, got, want)
		}
		if got, want := ia.Norm(), a.Norm(); got != want {
			t.Fatalf("iter %d: norm not copied bitwise: %v vs %v", iter, got, want)
		}
	}
}

// TestInternOverflowStillCorrect exercises the dynamic-overflow region: a
// lexicon seeded with only part of the vocabulary must still produce
// mathematically correct similarities (tolerance comparison — overflow IDs
// may reorder the accumulation) and exact Jaccard (order-free).
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
		if got, want := ia.Jaccard(ib), Jaccard(a, b); got != want {
			t.Fatalf("iter %d: overflow Jaccard mismatch: %v vs %v", iter, got, want)
		}
	}
}

func TestLexiconRoundTrip(t *testing.T) {
	lex := NewSortedLexicon([]string{"cherry", "apple", "banana", "apple"})
	if lex.SortedLen() != 3 {
		t.Fatalf("SortedLen = %d after dedup, want 3", lex.SortedLen())
	}
	// Base region is lexicographic.
	for i, want := range []string{"apple", "banana", "cherry"} {
		if got := lex.Term(int32(i)); got != want {
			t.Errorf("Term(%d) = %q, want %q", i, got, want)
		}
	}
	if id, ok := lex.ID("banana"); !ok || id != 1 {
		t.Errorf("ID(banana) = %d, %v", id, ok)
	}
	if _, ok := lex.ID("durian"); ok {
		t.Error("ID(durian) should be absent before interning")
	}
	d := lex.Intern("durian")
	if d != 3 {
		t.Errorf("first overflow ID = %d, want 3", d)
	}
	if lex.Intern("durian") != d {
		t.Error("re-interning changed the ID")
	}
	if lex.Term(d) != "durian" {
		t.Errorf("Term(%d) = %q", d, lex.Term(d))
	}
	if lex.Len() != 4 {
		t.Errorf("Len = %d, want 4", lex.Len())
	}
	if lex.Term(99) != "" {
		t.Error("unknown ID should map to empty string")
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

func TestUninterned(t *testing.T) {
	lex := NewSortedLexicon([]string{"x", "y", "z"})
	v := FromTokens([]string{"z", "x", "x"})
	iv := Intern(lex, v)
	back := iv.Uninterned(lex)
	if got, want := fmt.Sprint(back.Terms), fmt.Sprint(v.Terms); got != want {
		t.Errorf("terms: %s != %s", got, want)
	}
	if got, want := fmt.Sprint(back.Weights), fmt.Sprint(v.Weights); got != want {
		t.Errorf("weights: %s != %s", got, want)
	}
	if back.Norm() != v.Norm() {
		t.Errorf("norm: %v != %v", back.Norm(), v.Norm())
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

// TestInternSortedMatchesIntern: counting term numbers straight into an
// interned vector gives the bits of the string route — FromTokens, Apply,
// Intern — both in the lexicon's own numbering and through a translation
// table whose overflow IDs arrive out of string order.
func TestInternSortedMatchesIntern(t *testing.T) {
	base := []string{"apple", "fox", "mango", "zebra"}
	lex := WrapSortedTerms(base)
	idf := ComputeIDFFromIndex(dfTable{docs: 50, df: []int{3, 0, 17, 50}}, lex)

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
		want := Intern(lex, idf.Apply(FromTokens(tokens)))
		got := idf.InternSorted(tc.terms, tc.xlat)
		if !reflect.DeepEqual(got.IDs, want.IDs) || !reflect.DeepEqual(got.Weights, want.Weights) || got.Norm() != want.Norm() {
			t.Errorf("terms %v: InternSorted %v %v |%v|, want %v %v |%v|", tokens, got.IDs, got.Weights, got.Norm(), want.IDs, want.Weights, want.Norm())
		}
	}
}
