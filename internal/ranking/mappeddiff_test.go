package ranking

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/index"
)

// The mapped-storage acceptance differential: retrieval over an RIDX7
// image served in place by OpenMapped must be BIT-IDENTICAL to the flat
// reference scorer over the heap-built index (retrieveReference) — the
// same sweep the block layout passes, now with the posting bytes living
// in a file mapping instead of process heap. Models × k × shard counts,
// exhaustive and pruned evaluators, plus the sharded batch path.

// openMappedCopy persists blocked as a mapped image and opens it in
// place. The returned Segmented holds live file-backed memory; the
// t.Cleanup Close drops the test's reference (iterators created by the
// retrieval under test retain/release their own).
func openMappedCopy(t *testing.T, blocked *index.Index) *index.Segmented {
	t.Helper()
	path := filepath.Join(t.TempDir(), "diff.ridx7")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := index.SegmentIndex(blocked, 1).WriteMapped(f, func(int32) string { return "" }); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := index.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.Close() })
	return seg
}

// TestMappedRetrievalBitIdenticalToFlat sweeps block sizes {8, 128} ×
// models {DPH, BM25, TFIDF, LMDirichlet} × k {10, 100, all} × shards
// {1, 4} over the mapped image against the flat reference. The
// image is written with the max-score and block-max tables of every
// model installed, so the pruned paths run entirely off persisted
// tables — no posting is decoded to recompute a bound.
func TestMappedRetrievalBitIdenticalToFlat(t *testing.T) {
	ref := corpusIndex(t, 61, 300, 1)
	models := []Model{DPH{}, BM25{}, TFIDF{}, LMDirichlet{}}
	queries := [][]string{
		{"v00"},
		{"v01", "v09"},
		{"v02", "v02", "v17"}, // duplicate-term multiplicity
		{"v03", "v05", "v07", "v11", "v13", "v19"},
		{"v04", "never-indexed-term"},
		{"never-indexed-term"},
		{"v06", "v26", "v36"},
		{"v07", "v00", "v21", "v21"},
	}

	for _, bs := range []int{8, 128} {
		blocked := corpusIndex(t, 61, 300, bs)
		installTables(t, blocked)
		mappedSeg := openMappedCopy(t, blocked)
		mapped := mappedSeg.Index()
		if !mapped.Mapped() {
			t.Fatalf("bs=%d: OpenMapped index not mapped", bs)
		}
		for _, m := range models {
			for _, k := range []int{10, 100, 0} {
				for _, q := range queries {
					want := retrieveReference(ref, m, q, k)
					if got := Retrieve(mapped, m, q, k); !hitsBitIdentical(got, want) {
						t.Fatalf("bs=%d %s k=%d q=%v: mapped Retrieve diverged\n got %+v\nwant %+v",
							bs, m.Name(), k, q, got, want)
					}
					if got := retrievePruned(t, mapped, m, q, k); !hitsBitIdentical(got, want) {
						t.Fatalf("bs=%d %s k=%d q=%v: mapped pruned one-shard retrieval diverged\n got %+v\nwant %+v",
							bs, m.Name(), k, q, got, want)
					}
				}
				for _, shards := range []int{1, 4} {
					seg := mappedSeg.Resegment(shards)
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
							t.Fatalf("bs=%d shards=%d %s k=%d query %d: mapped batch diverged\n got %+v\nwant %+v",
								bs, shards, m.Name(), k, qi, got[qi], want)
						}
					}
				}
			}
		}
	}
}

// TestMappedPointLookupMatchesFlat pins ScoreDoc (SeekGE over mapped
// blocks) against a linear scan of the flat lists for every document.
func TestMappedPointLookupMatchesFlat(t *testing.T) {
	heap := corpusIndex(t, 67, 150, 8)
	mappedSeg := openMappedCopy(t, heap)
	mapped := mappedSeg.Index()
	q := []string{"v01", "v05", "v05", "v11"}
	for d := int32(0); d < int32(heap.NumDocs()); d++ {
		want := scoreDocReference(heap, DPH{}, q, d)
		got := ScoreDoc(mapped, DPH{}, q, d)
		if got != want {
			t.Fatalf("doc %d: mapped ScoreDoc %v != flat %v", d, got, want)
		}
	}
}
