package ranking

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/index"
)

// The block-layout acceptance differential: retrieval over block-
// compressed postings must be BIT-IDENTICAL to a test-only exhaustive
// scorer over the flat []Posting lists PostingsByID materializes
// (retrieveReference) — same documents, same ranks, same float64 score
// bits — across block sizes (including the degenerate 1-posting blocks and
// blocks far larger than any list), every weighting model, shard counts,
// and both the exhaustive and the MaxScore/Block-Max evaluators.

// corpusIndex builds the differential corpus with postings in blocks of
// blockSize.
func corpusIndex(t testing.TB, seed int64, numDocs, blockSize int) *index.Index {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := index.NewBuilder()
	b.SetBlockSize(blockSize)
	vocab := make([]string, 40)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("v%02d", i)
	}
	for i := 0; i < numDocs; i++ {
		n := rng.Intn(50) + 1
		w := make([]string, n)
		for j := range w {
			w[j] = vocab[rng.Intn(len(vocab))]
		}
		if err := b.Add(fmt.Sprintf("doc%03d", i), w); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// TestBlockedRetrievalBitIdenticalToFlat sweeps block sizes {1, 8, 128,
// 1024} × models {DPH, BM25, TFIDF, LMDirichlet} × shards {1, 4} ×
// k {10, 100, all} against the flat reference scorer, through Retrieve,
// the pruned one-shard batch and the sharded batch (pruning on). The
// reference runs over the 1-posting-block index, so every block size is
// also held to every other.
func TestBlockedRetrievalBitIdenticalToFlat(t *testing.T) {
	ref := corpusIndex(t, 61, 300, 1)
	models := []Model{DPH{}, BM25{}, TFIDF{}, LMDirichlet{}}
	rng := rand.New(rand.NewSource(19))
	queries := make([][]string, 0, 24)
	for trial := 0; trial < 24; trial++ {
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
		queries = append(queries, q)
	}

	for _, bs := range []int{1, 8, 128, 1024} {
		blocked := corpusIndex(t, 61, 300, bs)
		installTables(t, blocked)
		if blocked.BlockSize() != bs {
			t.Fatalf("block size %d built %d", bs, blocked.BlockSize())
		}
		for _, m := range models {
			for _, k := range []int{10, 100, 0} {
				for _, q := range queries {
					want := retrieveReference(ref, m, q, k)
					if got := Retrieve(blocked, m, q, k); !hitsBitIdentical(got, want) {
						t.Fatalf("bs=%d %s k=%d q=%v: Retrieve diverged\n got %+v\nwant %+v",
							bs, m.Name(), k, q, got, want)
					}
					if got := retrievePruned(t, blocked, m, q, k); !hitsBitIdentical(got, want) {
						t.Fatalf("bs=%d %s k=%d q=%v: pruned one-shard retrieval diverged\n got %+v\nwant %+v",
							bs, m.Name(), k, q, got, want)
					}
				}
				for _, shards := range []int{1, 4} {
					seg := index.SegmentIndex(blocked, shards)
					ks := make([]int, len(queries))
					for i := range ks {
						ks[i] = k
					}
					got, err := RetrieveBatchOpts(context.Background(), seg, m, queries, ks, BatchOptions{Prune: true})
					if err != nil {
						t.Fatal(err)
					}
					for qi := range queries {
						want := retrieveReference(ref, m, queries[qi], k)
						if !hitsBitIdentical(got[qi], want) {
							t.Fatalf("bs=%d shards=%d %s k=%d query %d: batch diverged\n got %+v\nwant %+v",
								bs, shards, m.Name(), k, qi, got[qi], want)
						}
					}
				}
			}
		}
	}
}

// scoreDocReference is ScoreDoc as a linear scan of the flat lists
// PostingsByID materializes.
func scoreDocReference(idx *index.Index, model Model, queryTokens []string, doc int32) float64 {
	cstats := idx.Stats()
	terms, mults := termMultiplicities(queryTokens)
	total, matched := 0.0, false
	for ti, term := range terms {
		tstats, ok := idx.Lookup(term)
		if !ok {
			continue
		}
		for _, p := range idx.PostingsByID(tstats.ID) {
			if p.Doc == doc {
				total += mults[ti] * model.TermScore(float64(p.TF), float64(idx.DocLen(doc)), tstats, cstats)
				matched = true
			}
		}
	}
	if !matched {
		return 0
	}
	return total + model.DocAdjust(float64(idx.DocLen(doc)), len(queryTokens), cstats)
}

// TestScoreDocBlockedMatchesFlat pins the point-lookup path (SeekGE over
// blocks) against a linear scan of the flat lists.
func TestScoreDocBlockedMatchesFlat(t *testing.T) {
	blocked := corpusIndex(t, 67, 150, 8)
	q := []string{"v01", "v05", "v05", "v11"}
	for d := int32(0); d < int32(blocked.NumDocs()); d++ {
		want := scoreDocReference(blocked, DPH{}, q, d)
		got := ScoreDoc(blocked, DPH{}, q, d)
		if got != want {
			t.Fatalf("doc %d: ScoreDoc %v != flat %v", d, got, want)
		}
	}
}

// TestRetrieveBatchPrunedConcurrentBlocked exercises the pooled block-
// decode scratch under concurrent pruned batches across shards —
// meaningful under -race: every worker decodes blocks of the same shared
// lists into its own pooled buffers.
func TestRetrieveBatchPrunedConcurrentBlocked(t *testing.T) {
	blocked := corpusIndex(t, 71, 200, 8)
	installTables(t, blocked)
	seg := index.SegmentIndex(blocked, 4)
	queries := [][]string{
		{"v00", "v01", "v02"},
		{"v01", "v09"},
		{"v02", "v02", "v17"},
		{"v03", "v05", "v05", "v07", "v11"},
	}
	ks := []int{10, 25, 10, 100}
	want, err := RetrieveBatchOpts(context.Background(), seg, DPH{}, queries, ks, BatchOptions{Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for iter := 0; iter < 30; iter++ {
				got, err := RetrieveBatchOpts(context.Background(), seg, DPH{}, queries, ks, BatchOptions{Prune: true})
				if err != nil {
					done <- err
					return
				}
				for qi := range want {
					if !hitsBitIdentical(got[qi], want[qi]) {
						done <- fmt.Errorf("query %d diverged under concurrency", qi)
						return
					}
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
