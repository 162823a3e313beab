package ranking

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/index"
)

// installTables attaches max-score tables for every boundable test model.
func installTables(t testing.TB, idx *index.Index) {
	t.Helper()
	if err := InstallMaxScores(idx, DPH{}, BM25{}, TFIDF{}, LMDirichlet{}); err != nil {
		t.Fatal(err)
	}
}

// TestMaxScoreTableDominatesPostings is the bound property the whole
// algorithm rests on: for every term, every posting's model score is at
// most the table entry.
func TestMaxScoreTableDominatesPostings(t *testing.T) {
	idx := randomCorpusIndex(t, 131, 200)
	installTables(t, idx)
	cstats := idx.Stats()
	for _, m := range []Boundable{DPH{}, BM25{}, TFIDF{}} {
		table := idx.MaxScores(m.BoundKey())
		if table == nil {
			t.Fatalf("%s: no table installed", m.Name())
		}
		for id := int32(0); id < int32(idx.NumTerms()); id++ {
			tstats, _ := idx.Lookup(idx.Term(id))
			for _, p := range idx.PostingsByID(id) {
				s := m.TermScore(float64(p.TF), float64(idx.DocLen(p.Doc)), tstats, cstats)
				if s > table[id] {
					t.Fatalf("%s term %q: posting score %v exceeds bound %v",
						m.Name(), idx.Term(id), s, table[id])
				}
			}
		}
	}
}

// TestLMDirichletNotPruneable pins the capability gate: the language
// model's negative DocAdjust cannot be bounded, so it must never get a
// table and always fall back to the exhaustive path.
func TestLMDirichletNotPruneable(t *testing.T) {
	idx := randomCorpusIndex(t, 132, 60)
	installTables(t, idx)
	if Pruneable(idx, LMDirichlet{}) {
		t.Fatal("LMDirichlet reported pruneable")
	}
	// And the fallback is literally Retrieve.
	q := []string{"v01", "v02", "v03"}
	if !hitsBitIdentical(retrievePruned(t, idx, LMDirichlet{}, q, 10), Retrieve(idx, LMDirichlet{}, q, 10)) {
		t.Fatal("LMDirichlet fallback diverged from Retrieve")
	}
}

// TestRetrievePrunedBitIdentical is the monolithic acceptance
// differential: for the boundable models, across k ∈ {10, 100, all} and
// randomized query shapes, MaxScore must reproduce the exhaustive
// evaluator exactly — same documents, same ranks, same float64 bits.
func TestRetrievePrunedBitIdentical(t *testing.T) {
	idx := randomCorpusIndex(t, 41, 300)
	installTables(t, idx)
	rng := rand.New(rand.NewSource(17))
	for _, m := range []Model{DPH{}, BM25{}, TFIDF{}, LMDirichlet{}} {
		for _, k := range []int{10, 100, 0} {
			for trial := 0; trial < 30; trial++ {
				qn := rng.Intn(6) + 1
				q := make([]string, qn)
				for j := range q {
					q[j] = fmt.Sprintf("v%02d", rng.Intn(40))
				}
				if trial%5 == 0 {
					q = append(q, "never-indexed-term")
				}
				if trial%7 == 0 {
					q = append(q, q[0]) // duplicate-term multiplicity
				}
				want := Retrieve(idx, m, q, k)
				got := retrievePruned(t, idx, m, q, k)
				if !hitsBitIdentical(got, want) {
					t.Fatalf("%s k=%d q=%v:\n got %+v\nwant %+v", m.Name(), k, q, got, want)
				}
			}
		}
	}
}

// TestRetrieveBatchPrunedBitIdentical is the sharded acceptance
// differential: pruning rides the scatter plan through per-shard workers,
// and across shard counts N ∈ {1, 2, 4, 7}, boundable models, and
// k ∈ {10, 100, all}, the merged output must equal exhaustive Retrieve
// bit for bit (LMDirichlet exercises the per-batch fallback).
func TestRetrieveBatchPrunedBitIdentical(t *testing.T) {
	idx := randomCorpusIndex(t, 43, 300)
	installTables(t, idx)
	queries := [][]string{
		{"v01", "v02", "v03"},
		{"v01", "v09"},         // shares v01 — scatter-plan overlap
		{"v02", "v02", "v17"},  // duplicate term multiplicity
		{},                     // empty query
		{"never-indexed-term"}, // no postings at all
		{"v03", "v05", "v05", "v07", "v11"},
	}
	ctx := context.Background()
	for _, shards := range []int{1, 2, 4, 7} {
		seg := index.SegmentIndex(idx, shards)
		for _, m := range []Model{DPH{}, BM25{}, TFIDF{}, LMDirichlet{}} {
			for _, k := range []int{10, 100, 0} {
				ks := make([]int, len(queries))
				for i := range ks {
					ks[i] = k
				}
				// Mixed batch: one query keeps k=0 (exhaustive by rule)
				// while the rest prune, exercising the split pass.
				if k > 0 {
					ks[len(ks)-1] = 0
				}
				got, err := RetrieveBatchOpts(ctx, seg, m, queries, ks, BatchOptions{Prune: true})
				if err != nil {
					t.Fatal(err)
				}
				for qi := range queries {
					want := Retrieve(idx, m, queries[qi], ks[qi])
					if !hitsBitIdentical(got[qi], want) {
						t.Fatalf("shards=%d %s k=%d query %d:\n got %+v\nwant %+v",
							shards, m.Name(), ks[qi], qi, got[qi], want)
					}
				}
			}
		}
	}
}

// TestRetrievePrunedTiesAndEdgeCases forces score ties (identical
// documents) and degenerate inputs through the pruned path.
func TestRetrievePrunedTiesAndEdgeCases(t *testing.T) {
	idx := buildIndex(t, map[string]string{
		"a-doc": "same words here",
		"b-doc": "same words here",
		"c-doc": "same words here",
		"d-doc": "other content entirely",
	})
	installTables(t, idx)
	for _, k := range []int{1, 2, 3} {
		want := Retrieve(idx, BM25{}, []string{"same", "words"}, k)
		got := retrievePruned(t, idx, BM25{}, []string{"same", "words"}, k)
		if !hitsBitIdentical(got, want) {
			t.Fatalf("k=%d ties: got %+v want %+v", k, got, want)
		}
	}
	if got := retrievePruned(t, idx, BM25{}, nil, 5); got != nil {
		t.Error("empty query returned hits")
	}
	if got := retrievePruned(t, idx, BM25{}, []string{"zzz-unindexed"}, 5); got != nil {
		t.Error("unknown-term query returned hits")
	}

	// A settled one-term top-k: every fourth of 1 600 documents is the same
	// text, so the term's 400 postings (25 blocks of 16) all score the
	// list's bound. Once a shard's heap holds k of them its threshold is
	// the bound, every later posting loses the tie on document number, and
	// the scan must stop: at most the blocks holding the shard's first k
	// postings are decoded, plus the one the last advance steps into.
	const block = 16
	b := index.NewBuilder()
	b.SetBlockSize(block)
	for i := 0; i < 1600; i++ {
		text := "other content entirely"
		if i%4 == 0 {
			text = "same words here"
		}
		toks := strings.Fields(text)
		if err := b.AddFields(fmt.Sprintf("tie%04d", i), toks, []int32{int32(len(toks))}); err != nil {
			t.Fatal(err)
		}
	}
	ties := b.Build()
	installTables(t, ties)
	q := []string{"same"}
	st, _ := ties.Lookup("same")
	postings := ties.PostingsByID(st.ID)
	if len(postings) < 20*block {
		t.Fatalf("the tied list spans %d postings, want ≥ 20 blocks", len(postings))
	}
	for _, m := range []Model{BM25{}, DPH{}, TFIDF{}} {
		for _, shards := range []int{1, 4} {
			seg := index.SegmentIndex(ties, shards)
			for _, k := range []int{1, 10, 100} {
				want := Retrieve(ties, m, q, k)
				if len(want) != k {
					t.Fatalf("%s k=%d: the oracle finds %d hits", m.Name(), k, len(want))
				}
				before, _ := index.BlockIOStats()
				got, err := retrieveOne(context.Background(), seg, m, q, k, BatchOptions{Prune: true})
				after, _ := index.BlockIOStats()
				if err != nil {
					t.Fatal(err)
				}
				if !hitsBitIdentical(got, want) {
					t.Fatalf("%s shards=%d k=%d settled ties: got %+v want %+v", m.Name(), shards, k, got, want)
				}
				limit := 0
				for si := 0; si < shards; si++ {
					lo, hi := seg.Shard(si).DocRange()
					first, _ := slices.BinarySearchFunc(postings, lo, func(p index.Posting, d int32) int { return cmp.Compare(p.Doc, d) })
					end, _ := slices.BinarySearchFunc(postings, hi, func(p index.Posting, d int32) int { return cmp.Compare(p.Doc, d) })
					if last := min(first+k, end) - 1; last >= first {
						limit += last/block - first/block + 1 + 1
					}
				}
				if decoded := after - before; decoded > int64(limit) {
					t.Errorf("%s shards=%d k=%d: %d blocks decoded of %d, want ≤ %d", m.Name(), shards, k, decoded, len(postings)/block, limit)
				}
			}
		}
	}
}

// TestRetrieveBatchPrunedCanceled pins the preemption contract on the
// pruned path: a canceled request context must abort the MaxScore
// evaluation, exactly as it aborts the exhaustive scatter pass.
func TestRetrieveBatchPrunedCanceled(t *testing.T) {
	idx := randomCorpusIndex(t, 45, 60)
	installTables(t, idx)
	seg := index.SegmentIndex(idx, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RetrieveBatchOpts(ctx, seg, DPH{}, [][]string{{"v01", "v02"}}, []int{10}, BatchOptions{Prune: true})
	if err == nil {
		t.Fatal("canceled context: want error, got nil")
	}
}

// TestInstallMaxScoresRejectsContractViolators: a model claiming
// Boundable with a nonzero DocAdjust must not get a table.
func TestInstallMaxScoresRejectsContractViolators(t *testing.T) {
	idx := randomCorpusIndex(t, 44, 40)
	if err := InstallMaxScores(idx, badBoundable{}); err != nil {
		t.Fatal(err)
	}
	if Pruneable(idx, badBoundable{}) {
		t.Fatal("zero-adjust violator got a max-score table")
	}
}

// badBoundable claims the capability but has a nonzero DocAdjust.
type badBoundable struct{ TFIDF }

func (badBoundable) BoundKey() string { return "BAD" }
func (badBoundable) DocAdjust(docLen float64, qLen int, c index.CollectionStats) float64 {
	return -1
}
