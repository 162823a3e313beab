package textsim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/text"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func vec(tokens ...string) Vector { return FromTokens(tokens) }

func TestFromTokensCounts(t *testing.T) {
	v := vec("apple", "fruit", "apple")
	if v.Len() != 2 {
		t.Fatalf("Len = %d, want 2", v.Len())
	}
	if v.Weight("apple") != 2 || v.Weight("fruit") != 1 {
		t.Errorf("weights = %f, %f", v.Weight("apple"), v.Weight("fruit"))
	}
	if v.Weight("absent") != 0 {
		t.Error("absent term has non-zero weight")
	}
	if !almostEq(v.Norm(), math.Sqrt(5), 1e-12) {
		t.Errorf("Norm = %f, want sqrt(5)", v.Norm())
	}
}

func TestFromCountsDropsZeros(t *testing.T) {
	v := FromCounts(map[string]float64{"a": 1, "b": 0, "c": 2})
	if v.Len() != 2 {
		t.Errorf("Len = %d, want 2 (zero weights dropped)", v.Len())
	}
}

func TestCosineIdentical(t *testing.T) {
	v := vec("a", "b", "c")
	if c := Cosine(v, v); !almostEq(c, 1, 1e-12) {
		t.Errorf("Cosine(v,v) = %f, want 1", c)
	}
	if d := Distance(v, v); !almostEq(d, 0, 1e-12) {
		t.Errorf("Distance(v,v) = %f, want 0", d)
	}
}

func TestCosineOrthogonal(t *testing.T) {
	a, b := vec("x", "y"), vec("p", "q")
	if c := Cosine(a, b); c != 0 {
		t.Errorf("Cosine(disjoint) = %f, want 0", c)
	}
	if d := Distance(a, b); d != 1 {
		t.Errorf("Distance(disjoint) = %f, want 1", d)
	}
}

func TestCosineKnownValue(t *testing.T) {
	// a = (1,1,0), b = (1,0,1) → cos = 1/2.
	a, b := vec("t1", "t2"), vec("t1", "t3")
	if c := Cosine(a, b); !almostEq(c, 0.5, 1e-12) {
		t.Errorf("Cosine = %f, want 0.5", c)
	}
}

func TestCosineZeroVector(t *testing.T) {
	var zero Vector
	v := vec("a")
	if Cosine(zero, v) != 0 || Cosine(v, zero) != 0 {
		t.Error("cosine with zero vector must be 0")
	}
	if !zero.IsZero() || v.IsZero() {
		t.Error("IsZero misreports")
	}
}

func TestDot(t *testing.T) {
	a := FromCounts(map[string]float64{"x": 2, "y": 3})
	b := FromCounts(map[string]float64{"y": 4, "z": 5})
	if d := Dot(a, b); !almostEq(d, 12, 1e-12) {
		t.Errorf("Dot = %f, want 12", d)
	}
}

// Property: δ satisfies the paper's §3.1 axioms on arbitrary token multisets:
// symmetry, δ(d,d)=0, and range [0,1].
func TestDistanceAxiomsProperty(t *testing.T) {
	prop := func(aTok, bTok []string) bool {
		a, b := FromTokens(aTok), FromTokens(bTok)
		dab, dba := Distance(a, b), Distance(b, a)
		if !almostEq(dab, dba, 1e-12) {
			return false
		}
		if dab < 0 || dab > 1 {
			return false
		}
		return almostEq(Distance(a, a), 0, 1e-12) || a.IsZero()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestJaccard(t *testing.T) {
	a, b := vec("a", "b", "c"), vec("b", "c", "d")
	if j := Jaccard(a, b); !almostEq(j, 0.5, 1e-12) {
		t.Errorf("Jaccard = %f, want 0.5", j)
	}
	if j := Jaccard(a, a); j != 1 {
		t.Errorf("Jaccard(v,v) = %f, want 1", j)
	}
	var zero Vector
	if j := Jaccard(zero, zero); j != 1 {
		t.Errorf("Jaccard(0,0) = %f, want 1", j)
	}
	if j := Jaccard(zero, a); j != 0 {
		t.Errorf("Jaccard(0,v) = %f, want 0", j)
	}
}

func TestJaccardTokens(t *testing.T) {
	if j := JaccardTokens([]string{"apple", "mac"}, []string{"apple", "fruit"}); !almostEq(j, 1.0/3, 1e-12) {
		t.Errorf("JaccardTokens = %f, want 1/3", j)
	}
	if j := JaccardTokens(nil, nil); j != 1 {
		t.Errorf("JaccardTokens(nil,nil) = %f, want 1", j)
	}
	// Duplicates must not inflate the measure.
	if j := JaccardTokens([]string{"a", "a", "b"}, []string{"a", "b", "b"}); j != 1 {
		t.Errorf("JaccardTokens with dups = %f, want 1", j)
	}
}

func TestComputeIDF(t *testing.T) {
	idf := ComputeIDF(map[string]int{"common": 10, "rare": 1}, 10)
	if idf["rare"] <= idf["common"] {
		t.Errorf("idf(rare)=%f should exceed idf(common)=%f", idf["rare"], idf["common"])
	}
	if !almostEq(idf["common"], math.Log(2), 1e-12) {
		t.Errorf("idf(common) = %f, want ln 2", idf["common"])
	}
	if _, ok := idf["zero"]; ok {
		t.Error("df=0 term must be absent")
	}
}

func TestIDFApply(t *testing.T) {
	docs := []Vector{vec("the", "apple"), vec("the", "tank"), vec("the", "apple", "pie")}
	idf := ComputeIDFFromVectors(docs)
	v := idf.Apply(vec("the", "apple"))
	// "the" appears in all 3 docs, "apple" in 2 — apple must outweigh the.
	if v.Weight("apple") <= v.Weight("the") {
		t.Errorf("apple weight %f should exceed the weight %f", v.Weight("apple"), v.Weight("the"))
	}
	if v.Norm() == 0 {
		t.Error("applied vector has zero norm")
	}
}

func TestIDFApplyUnknownTermDefaults(t *testing.T) {
	idf := IDF{}
	v := idf.Apply(vec("novel"))
	if v.Weight("novel") != 1 {
		t.Errorf("unknown term weight = %f, want tf*1", v.Weight("novel"))
	}
}

// Integration with the text package: vectors over analyzed snippets behave
// like the paper's document surrogates.
func TestSnippetSurrogateSimilarity(t *testing.T) {
	a := text.NewAnalyzer()
	lex := NewSortedLexicon(nil)
	surrogate := func(s string) IVector { return SliceIDF{}.InternTokens(lex, a.Tokens(s)) }
	apple1 := surrogate("Apple unveils the new Mac OS X Leopard operating system")
	apple2 := surrogate("Mac OS X Leopard operating system released by Apple")
	tank := surrogate("The Leopard 2 main battle tank of the German army")

	if apple1.Cosine(apple2) <= apple1.Cosine(tank) {
		t.Errorf("same-intent snippets must be closer: %f vs %f",
			apple1.Cosine(apple2), apple1.Cosine(tank))
	}
	if d := apple1.Distance(tank); d <= 0.3 {
		t.Errorf("cross-intent distance suspiciously low: %f", d)
	}
}

func BenchmarkCosine(b *testing.B) {
	tokens1 := text.Tokenize("the quick brown fox jumps over the lazy dog and runs far away into the woods")
	tokens2 := text.Tokenize("a lazy brown dog sleeps under the quick red fox near the old woods entrance")
	lex := NewSortedLexicon(append(tokens1, tokens2...))
	v1, v2 := SliceIDF{}.InternTokens(lex, tokens1), SliceIDF{}.InternTokens(lex, tokens2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v1.Cosine(v2)
	}
}
