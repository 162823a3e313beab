package ranking

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/index"
)

// randomCorpusIndex builds the randomized differential corpus shared by
// the sharded tests: enough documents that every shard count in the
// sweep gets non-trivial ranges, with score ties likely (small vocab).
func randomCorpusIndex(t testing.TB, seed int64, numDocs int) *index.Index {
	rng := rand.New(rand.NewSource(seed))
	docs := make(map[string]string, numDocs)
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
		docs[fmt.Sprintf("doc%03d", i)] = strings.Join(w, " ")
	}
	return buildIndex(t, docs)
}

// retrieveOne answers a single query through the batch entry point.
func retrieveOne(ctx context.Context, seg *index.Segmented, m Model, q []string, k int, opts BatchOptions) ([]Hit, error) {
	res, err := RetrieveBatchOpts(ctx, seg, m, [][]string{q}, []int{k}, opts)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// retrievePruned answers a single query with MaxScore pruning on over the
// unpartitioned index.
func retrievePruned(t testing.TB, idx *index.Index, m Model, q []string, k int) []Hit {
	t.Helper()
	hits, err := retrieveOne(context.Background(), index.SegmentIndex(idx, 1), m, q, k, BatchOptions{Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	return hits
}

func hitsBitIdentical(a, b []Hit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		// Struct equality compares Score with ==; identical bits for any
		// non-NaN score, and retrieval never produces NaN.
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRetrieveShardedBitIdentical is the acceptance differential: across
// shard counts, models, query shapes and k values, the partitioned
// fan-out + merge must reproduce the monolithic Retrieve exactly —
// same docs, same ranks, same float64 score bits.
func TestRetrieveShardedBitIdentical(t *testing.T) {
	idx := randomCorpusIndex(t, 31, 120)
	rng := rand.New(rand.NewSource(7))
	vocabTerm := func() string { return fmt.Sprintf("v%02d", rng.Intn(40)) }
	ctx := context.Background()
	for _, shards := range []int{1, 2, 4, 7} {
		seg := index.SegmentIndex(idx, shards)
		for _, m := range []Model{DPH{}, BM25{}, TFIDF{}, LMDirichlet{}} {
			for trial := 0; trial < 25; trial++ {
				qn := rng.Intn(6) + 1
				q := make([]string, qn)
				for j := range q {
					q[j] = vocabTerm()
				}
				if trial%5 == 0 {
					q = append(q, "never-indexed-term")
				}
				k := rng.Intn(30) // 0 = all matches
				want := Retrieve(idx, m, q, k)
				got, err := retrieveOne(ctx, seg, m, q, k, BatchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if !hitsBitIdentical(got, want) {
					t.Fatalf("shards=%d %s k=%d q=%v:\n got %+v\nwant %+v",
						shards, m.Name(), k, q, got, want)
				}
			}
		}
	}
}

// TestRetrieveBatchMatchesIndividual checks the scatter-gather batch: a
// mixed batch (main query + specialization-style queries, overlapping
// terms, an empty query, distinct ks) must equal per-query Retrieve.
func TestRetrieveBatchMatchesIndividual(t *testing.T) {
	idx := randomCorpusIndex(t, 53, 90)
	queries := [][]string{
		{"v01", "v02", "v03"},
		{"v01", "v09"},         // shares v01 with the main query
		{"v02", "v02", "v17"},  // duplicate term multiplicity
		{},                     // unambiguous / empty
		{"never-indexed-term"}, // no postings at all
		{"v03", "v05", "v05", "v07", "v11"},
	}
	ks := []int{25, 5, 5, 5, 5, 0}
	for _, shards := range []int{1, 2, 4, 7} {
		seg := index.SegmentIndex(idx, shards)
		got, err := RetrieveBatchOpts(context.Background(), seg, DPH{}, queries, ks, BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for qi := range queries {
			want := Retrieve(idx, DPH{}, queries[qi], ks[qi])
			if !hitsBitIdentical(got[qi], want) {
				t.Fatalf("shards=%d query %d: \n got %+v\nwant %+v", shards, qi, got[qi], want)
			}
		}
	}
}

func TestRetrieveShardedCanceled(t *testing.T) {
	idx := randomCorpusIndex(t, 11, 60)
	seg := index.SegmentIndex(idx, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := retrieveOne(ctx, seg, DPH{}, []string{"v01", "v02"}, 10, BatchOptions{}); err == nil {
		t.Fatal("canceled context: want error, got nil")
	}
}

func TestRetrieveShardedEmptyIndex(t *testing.T) {
	seg := index.SegmentIndex(index.NewBuilder().Build(), 3)
	hits, err := retrieveOne(context.Background(), seg, DPH{}, []string{"x"}, 10, BatchOptions{})
	if err != nil || hits != nil {
		t.Fatalf("empty index: hits=%v err=%v", hits, err)
	}
}

// TestRetrieveBatchConcurrent exercises the pooled per-shard accumulators
// under concurrent batches (meaningful with -race).
func TestRetrieveBatchConcurrent(t *testing.T) {
	idx := randomCorpusIndex(t, 97, 80)
	seg := index.SegmentIndex(idx, 4)
	queries := [][]string{{"v00", "v01"}, {"v02"}, {"v03", "v04", "v05"}}
	ks := []int{10, 10, 10}
	want, err := RetrieveBatchOpts(context.Background(), seg, DPH{}, queries, ks, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for iter := 0; iter < 30; iter++ {
				got, err := RetrieveBatchOpts(context.Background(), seg, DPH{}, queries, ks, BatchOptions{})
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
