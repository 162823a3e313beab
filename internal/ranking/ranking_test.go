package ranking

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/index"
)

func buildIndex(t testing.TB, docs map[string]string) *index.Index {
	t.Helper()
	b := index.NewBuilder()
	// Deterministic insertion order.
	ids := make([]string, 0, len(docs))
	for id := range docs {
		ids = append(ids, id)
	}
	sortStrings(ids)
	for _, id := range ids {
		if err := b.Add(id, strings.Fields(docs[id])); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func newsIndex(t testing.TB) *index.Index {
	return buildIndex(t, map[string]string{
		"apple-fruit": "apple fruit orchard harvest apple pie recipe fruit sugar",
		"apple-corp":  "apple company mac computer iphone product launch keynote",
		"apple-mixed": "apple apple apple news daily general report",
		"tank-doc":    "leopard tank army military armor battalion",
		"cat-doc":     "leopard cat wildlife africa savanna predator",
		"unrelated":   "weather forecast rain sunny cloud temperature",
		"longpadding": "filler words here that mention apple once among many many many many many many many many other other other tokens tokens tokens to make this document much longer than the rest",
	})
}

func TestRetrieveDPHRanksRelevantFirst(t *testing.T) {
	idx := newsIndex(t)
	hits := Retrieve(idx, DPH{}, []string{"apple", "fruit"}, 10)
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	if hits[0].DocID != "apple-fruit" {
		t.Errorf("top hit = %q, want apple-fruit", hits[0].DocID)
	}
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			t.Error("hits not sorted by score")
		}
		if hits[i].Rank != i+1 {
			t.Errorf("rank %d = %d", i, hits[i].Rank)
		}
	}
}

func TestRetrieveAllModelsAgreeOnObviousQuery(t *testing.T) {
	idx := newsIndex(t)
	for _, m := range []Model{DPH{}, BM25{}, TFIDF{}, LMDirichlet{}} {
		hits := Retrieve(idx, m, []string{"leopard", "tank", "army"}, 3)
		if len(hits) == 0 {
			t.Fatalf("%s: no hits", m.Name())
		}
		if hits[0].DocID != "tank-doc" {
			t.Errorf("%s: top hit = %q, want tank-doc", m.Name(), hits[0].DocID)
		}
	}
}

func TestRetrieveKTruncation(t *testing.T) {
	idx := newsIndex(t)
	all := Retrieve(idx, DPH{}, []string{"apple"}, 0)
	top2 := Retrieve(idx, DPH{}, []string{"apple"}, 2)
	if len(top2) != 2 {
		t.Fatalf("k=2 returned %d", len(top2))
	}
	if len(all) < 3 {
		t.Fatalf("k=0 should return all matches, got %d", len(all))
	}
	for i := range top2 {
		if top2[i].DocID != all[i].DocID {
			t.Errorf("top-2 disagrees with full ranking at %d", i)
		}
	}
}

func TestRetrieveEmptyAndUnknown(t *testing.T) {
	idx := newsIndex(t)
	if hits := Retrieve(idx, DPH{}, nil, 10); hits != nil {
		t.Error("empty query returned hits")
	}
	if hits := Retrieve(idx, DPH{}, []string{"zzzznotindexed"}, 10); hits != nil {
		t.Error("unknown-term query returned hits")
	}
}

func TestRetrieveDeterministicTieBreak(t *testing.T) {
	// Two identical documents must always appear in doc-number order.
	idx := buildIndex(t, map[string]string{
		"a-doc": "same words here",
		"b-doc": "same words here",
	})
	for trial := 0; trial < 5; trial++ {
		hits := Retrieve(idx, BM25{}, []string{"same", "words"}, 10)
		if len(hits) != 2 || hits[0].DocID != "a-doc" || hits[1].DocID != "b-doc" {
			t.Fatalf("trial %d: hits = %+v", trial, hits)
		}
	}
}

func TestRetrieveBitwiseRepeatable(t *testing.T) {
	// Repeated identical multi-term queries must return bitwise-identical
	// scores: term contributions are accumulated in sorted term order, not
	// map order, because float addition is not associative. (The serving
	// cache's Diversify-equivalence contract depends on this.)
	rng := rand.New(rand.NewSource(9))
	docs := make(map[string]string, 60)
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"}
	for i := 0; i < 60; i++ {
		var w []string
		for j := 0; j < 25; j++ {
			w = append(w, vocab[rng.Intn(len(vocab))])
		}
		docs[fmt.Sprintf("doc%02d", i)] = strings.Join(w, " ")
	}
	idx := buildIndex(t, docs)
	query := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	first := Retrieve(idx, DPH{}, query, 0)
	for trial := 0; trial < 10; trial++ {
		again := Retrieve(idx, DPH{}, query, 0)
		if len(again) != len(first) {
			t.Fatalf("trial %d: %d hits, want %d", trial, len(again), len(first))
		}
		for i := range first {
			if again[i].DocID != first[i].DocID || again[i].Score != first[i].Score {
				t.Fatalf("trial %d hit %d: %+v != %+v", trial, i, again[i], first[i])
			}
		}
	}
}

func TestDPHProperties(t *testing.T) {
	c := index.CollectionStats{NumDocs: 1000, TotalTokens: 100000, AvgDocLen: 100}
	ts := index.TermStats{DF: 10, CF: 20}
	m := DPH{}
	// Monotone-ish in tf for fixed docLen (over the small-tf regime).
	prev := 0.0
	for tf := 1.0; tf <= 8; tf++ {
		s := m.TermScore(tf, 100, ts, c)
		if s < prev {
			t.Errorf("DPH not increasing at tf=%f: %f < %f", tf, s, prev)
		}
		prev = s
	}
	// Rarer terms (smaller CF) score at least as high.
	rare := m.TermScore(3, 100, index.TermStats{DF: 2, CF: 3}, c)
	common := m.TermScore(3, 100, index.TermStats{DF: 500, CF: 5000}, c)
	if rare <= common {
		t.Errorf("DPH rare %f <= common %f", rare, common)
	}
	// Degenerate inputs.
	if m.TermScore(0, 100, ts, c) != 0 {
		t.Error("tf=0 scored")
	}
	if m.TermScore(5, 5, ts, c) != 0 {
		t.Error("tf==docLen (f=1) must score 0 under Popper normalization")
	}
	if s := m.TermScore(3, 100, ts, index.CollectionStats{}); s != 0 {
		t.Error("empty collection scored")
	}
}

func TestBM25KnownValue(t *testing.T) {
	c := index.CollectionStats{NumDocs: 100, TotalTokens: 10000, AvgDocLen: 100}
	ts := index.TermStats{DF: 10, CF: 50}
	m := BM25{} // k1=1.2, b=0.75
	tf, dl := 3.0, 120.0
	idf := math.Log(1 + (100.0-10+0.5)/(10+0.5))
	denom := tf + 1.2*(1-0.75+0.75*dl/100)
	want := idf * tf * 2.2 / denom
	if got := m.TermScore(tf, dl, ts, c); math.Abs(got-want) > 1e-12 {
		t.Errorf("BM25 = %.12f, want %.12f", got, want)
	}
}

func TestLMDirichletDocAdjust(t *testing.T) {
	c := index.CollectionStats{NumDocs: 100, TotalTokens: 10000, AvgDocLen: 100}
	m := LMDirichlet{Mu: 1000}
	// Longer docs get a more negative adjustment.
	short := m.DocAdjust(10, 2, c)
	long := m.DocAdjust(1000, 2, c)
	if long >= short {
		t.Errorf("DocAdjust long %f >= short %f", long, short)
	}
	// Zero query terms: no adjustment.
	if m.DocAdjust(100, 0, c) != 0 {
		t.Error("qLen=0 adjusted")
	}
}

func TestScoreDocMatchesRetrieve(t *testing.T) {
	idx := newsIndex(t)
	q := []string{"apple", "fruit"}
	hits := Retrieve(idx, DPH{}, q, 0)
	for _, h := range hits {
		s := ScoreDoc(idx, DPH{}, q, h.Doc)
		if math.Abs(s-h.Score) > 1e-9 {
			t.Errorf("ScoreDoc(%s) = %f, Retrieve score %f", h.DocID, s, h.Score)
		}
	}
	// Non-matching doc scores 0.
	var nonMatch int32 = -1
	for d := int32(0); d < int32(idx.NumDocs()); d++ {
		if idx.DocID(d) == "unrelated" {
			nonMatch = d
		}
	}
	if s := ScoreDoc(idx, DPH{}, q, nonMatch); s != 0 {
		t.Errorf("non-matching doc scored %f", s)
	}
}

func TestNormalizeScores(t *testing.T) {
	hits := []Hit{{Score: 4}, {Score: 2}, {Score: 1}}
	norm := NormalizeScores(hits)
	if norm[0].Score != 1 || norm[1].Score != 0.5 || norm[2].Score != 0.25 {
		t.Errorf("normalized = %+v", norm)
	}
	// Original slice untouched.
	if hits[0].Score != 4 {
		t.Error("NormalizeScores mutated input")
	}
	if got := NormalizeScores(nil); got != nil {
		t.Error("nil input mishandled")
	}
	zero := []Hit{{Score: 0}}
	if NormalizeScores(zero)[0].Score != 0 {
		t.Error("all-zero list changed")
	}
}

func TestNormalizeScoresInPlace(t *testing.T) {
	hits := []Hit{{Score: 4}, {Score: 2}, {Score: 1}}
	NormalizeScoresInPlace(hits)
	if hits[0].Score != 1 || hits[1].Score != 0.5 || hits[2].Score != 0.25 {
		t.Errorf("normalized = %+v", hits)
	}
	NormalizeScoresInPlace(nil) // must not panic
	zero := []Hit{{Score: 0}}
	NormalizeScoresInPlace(zero)
	if zero[0].Score != 0 {
		t.Error("all-zero list changed")
	}
	// The copying variant must agree with the in-place one bit for bit.
	a := []Hit{{Score: 3.7}, {Score: 1.1}, {Score: 2.9}}
	b := NormalizeScores(a)
	NormalizeScoresInPlace(a)
	for i := range a {
		if a[i].Score != b[i].Score {
			t.Errorf("variant disagreement at %d: %v != %v", i, a[i].Score, b[i].Score)
		}
	}
}

func TestTermMultiplicitiesFold(t *testing.T) {
	terms, mults := termMultiplicities([]string{"b", "a", "b", "c", "a", "b"})
	wantTerms := []string{"a", "b", "c"}
	wantMults := []float64{2, 3, 1}
	if len(terms) != 3 {
		t.Fatalf("terms = %v", terms)
	}
	for i := range wantTerms {
		if terms[i] != wantTerms[i] || mults[i] != wantMults[i] {
			t.Errorf("fold[%d] = (%q, %v), want (%q, %v)",
				i, terms[i], mults[i], wantTerms[i], wantMults[i])
		}
	}
	// The fold must not mutate the caller's token slice.
	in := []string{"z", "a"}
	termMultiplicities(in)
	if in[0] != "z" || in[1] != "a" {
		t.Errorf("input mutated: %v", in)
	}
}

// retrieveReference is the pre-accumulator implementation of Retrieve —
// the map[int32]float64 DAAT scorer over the flat lists PostingsByID
// materializes — kept as a differential oracle: the dense-array rewrite
// and every block size of the evaluators must reproduce its scores bit
// for bit.
func retrieveReference(idx *index.Index, model Model, queryTokens []string, k int) []Hit {
	if len(queryTokens) == 0 {
		return nil
	}
	cstats := idx.Stats()
	terms, mults := termMultiplicities(queryTokens)
	acc := make(map[int32]float64, 1024)
	for ti, term := range terms {
		mult := mults[ti]
		tstats, ok := idx.Lookup(term)
		if !ok {
			continue
		}
		for _, p := range idx.PostingsByID(tstats.ID) {
			s := model.TermScore(float64(p.TF), float64(idx.DocLen(p.Doc)), tstats, cstats)
			if s != 0 {
				acc[p.Doc] += mult * s
			}
		}
	}
	if len(acc) == 0 {
		return nil
	}
	docs := make([]int32, 0, len(acc))
	for doc := range acc {
		docs = append(docs, doc)
	}
	hits := make([]Hit, 0, len(docs))
	for _, doc := range docs {
		score := acc[doc] + model.DocAdjust(float64(idx.DocLen(doc)), len(queryTokens), cstats)
		hits = append(hits, Hit{Doc: doc, DocID: idx.DocID(doc), Score: score})
	}
	// Order: descending score, ascending doc — the heap's contract.
	for i := 1; i < len(hits); i++ {
		for j := i; j > 0 && (hits[j].Score > hits[j-1].Score ||
			(hits[j].Score == hits[j-1].Score && hits[j].Doc < hits[j-1].Doc)); j-- {
			hits[j], hits[j-1] = hits[j-1], hits[j]
		}
	}
	if k > 0 && k < len(hits) {
		hits = hits[:k]
	}
	for i := range hits {
		hits[i].Rank = i + 1
	}
	return hits
}

// TestRetrieveMatchesMapReference is the differential test for the dense-
// accumulator rewrite: across models, query shapes and k values the new
// scorer must agree with the historical map-based scorer exactly.
func TestRetrieveMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	docs := make(map[string]string, 120)
	vocab := make([]string, 40)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("v%02d", i)
	}
	for i := 0; i < 120; i++ {
		n := rng.Intn(50) + 1
		w := make([]string, n)
		for j := range w {
			w[j] = vocab[rng.Intn(len(vocab))]
		}
		docs[fmt.Sprintf("doc%03d", i)] = strings.Join(w, " ")
	}
	idx := buildIndex(t, docs)
	for _, m := range []Model{DPH{}, BM25{}, TFIDF{}, LMDirichlet{}} {
		for trial := 0; trial < 40; trial++ {
			qn := rng.Intn(6) + 1
			q := make([]string, qn)
			for j := range q {
				q[j] = vocab[rng.Intn(len(vocab))]
			}
			k := rng.Intn(30)
			got := Retrieve(idx, m, q, k)
			want := retrieveReference(idx, m, q, k)
			if len(got) != len(want) {
				t.Fatalf("%s k=%d q=%v: %d hits, reference %d", m.Name(), k, q, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s k=%d q=%v hit %d:\n got %+v\nwant %+v", m.Name(), k, q, i, got[i], want[i])
				}
			}
		}
	}
}

// TestRetrieveConcurrent exercises the pooled accumulators from many
// goroutines (meaningful under -race) and checks cross-query isolation.
func TestRetrieveConcurrent(t *testing.T) {
	idx := newsIndex(t)
	queries := [][]string{
		{"apple", "fruit"},
		{"leopard", "tank", "army"},
		{"apple"},
		{"weather", "rain"},
	}
	want := make([][]Hit, len(queries))
	for i, q := range queries {
		want[i] = Retrieve(idx, DPH{}, q, 0)
	}
	done := make(chan error, 16)
	for g := 0; g < 16; g++ {
		go func(g int) {
			for iter := 0; iter < 50; iter++ {
				i := (g + iter) % len(queries)
				got := Retrieve(idx, DPH{}, queries[i], 0)
				if len(got) != len(want[i]) {
					done <- fmt.Errorf("query %d: %d hits, want %d", i, len(got), len(want[i]))
					return
				}
				for j := range got {
					if got[j] != want[i][j] {
						done <- fmt.Errorf("query %d hit %d: %+v != %+v", i, j, got[j], want[i][j])
						return
					}
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 16; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestQueryTermMultiplicity(t *testing.T) {
	idx := newsIndex(t)
	s1 := Retrieve(idx, TFIDF{}, []string{"apple"}, 1)[0].Score
	s2 := Retrieve(idx, TFIDF{}, []string{"apple", "apple"}, 1)[0].Score
	if math.Abs(s2-2*s1) > 1e-9 {
		t.Errorf("duplicate term score %f, want 2x %f", s2, s1)
	}
}

func BenchmarkRetrieveDPH(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	builder := index.NewBuilder()
	vocab := make([]string, 5000)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("t%04d", i)
	}
	for d := 0; d < 20000; d++ {
		toks := make([]string, 60)
		for j := range toks {
			// Zipf-ish skew via squared uniform.
			u := rng.Float64()
			toks[j] = vocab[int(u*u*float64(len(vocab)))]
		}
		builder.Add(fmt.Sprintf("doc%05d", d), toks)
	}
	idx := builder.Build()
	query := []string{"t0000", "t0003", "t0050"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Retrieve(idx, DPH{}, query, 100)
	}
}
