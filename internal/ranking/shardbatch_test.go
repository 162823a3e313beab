package ranking

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/index"
)

// TestRetrieveShardBatchMergesToBatch is the process-boundary
// differential of the distributed serving tier, run in-process: scoring
// each shard independently through RetrieveShardBatch (what a remote
// shard worker does) and stitching the lists with MergeSegments (what
// the router does) must reproduce the one-process RetrieveBatchOpts
// bit for bit — same docs, ranks, and float64 score bits — across
// shard counts, models, pruned and exhaustive paths, and k values.
func TestRetrieveShardBatchMergesToBatch(t *testing.T) {
	idx := randomCorpusIndex(t, 71, 130)
	if err := InstallMaxScores(idx, DPH{}, BM25{}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	ctx := context.Background()
	for _, shards := range []int{1, 2, 4, 7} {
		seg := index.SegmentIndex(idx, shards)
		for _, m := range []Model{DPH{}, BM25{}, LMDirichlet{}} {
			for _, opts := range []BatchOptions{{}, {Prune: true}} {
				for trial := 0; trial < 10; trial++ {
					queries := make([][]string, rng.Intn(4)+2)
					ks := make([]int, len(queries))
					for qi := range queries {
						qn := rng.Intn(5) + 1
						q := make([]string, qn)
						for j := range q {
							q[j] = fmt.Sprintf("v%02d", rng.Intn(40))
						}
						queries[qi] = q
						ks[qi] = rng.Intn(25) // 0 = all matches
					}
					queries = append(queries, nil) // empty query rides along
					ks = append(ks, 10)

					want, err := RetrieveBatchOpts(ctx, seg, m, queries, ks, opts)
					if err != nil {
						t.Fatal(err)
					}

					perShard := make([][][]Hit, shards)
					for si := 0; si < shards; si++ {
						perShard[si], err = RetrieveShardBatch(ctx, seg, si, m, queries, ks, opts, nil)
						if err != nil {
							t.Fatal(err)
						}
					}
					for qi := range queries {
						lists := make([][]Hit, shards)
						for si := 0; si < shards; si++ {
							lists[si] = perShard[si][qi]
						}
						got := MergeSegments(lists, ks[qi])
						if len(got) == 0 && len(want[qi]) == 0 {
							continue
						}
						if !hitsBitIdentical(got, want[qi]) {
							t.Fatalf("shards=%d %s prune=%v query %d k=%d:\n got %+v\nwant %+v",
								shards, m.Name(), opts.Prune, qi, ks[qi], got, want[qi])
						}
					}
				}
			}
		}
	}
}

// TestRetrieveShardBatchValidation covers the explicit error paths.
func TestRetrieveShardBatchValidation(t *testing.T) {
	idx := randomCorpusIndex(t, 5, 30)
	seg := index.SegmentIndex(idx, 2)
	if _, err := RetrieveShardBatch(context.Background(), seg, 2, DPH{}, [][]string{{"v01"}}, []int{5}, BatchOptions{}, nil); err == nil {
		t.Fatal("out-of-range shard: want error, got nil")
	}
	if _, err := RetrieveShardBatch(context.Background(), seg, -1, DPH{}, [][]string{{"v01"}}, []int{5}, BatchOptions{}, nil); err == nil {
		t.Fatal("negative shard: want error, got nil")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RetrieveShardBatch(ctx, seg, 0, DPH{}, [][]string{{"v01", "v02"}}, []int{5}, BatchOptions{}, nil); err == nil {
		t.Fatal("canceled context: want error, got nil")
	}
}
