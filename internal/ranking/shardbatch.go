package ranking

import (
	"context"
	"fmt"

	"repro/internal/index"
)

// RetrieveShardBatch evaluates a query batch against ONE shard of the
// segmented index: the worker half of the distributed serving tier. A
// shard-worker process calls this for the shard it owns and ships the
// per-query hit lists to the router, which stitches the per-shard lists
// from all workers back together with MergeSegments — exactly the
// gather RetrieveBatchOpts performs in-process.
//
// The returned lists are what the in-process fan-out holds per shard
// just before its merge: hits with global Doc numbers and final scores,
// sorted by (score desc, doc asc), truncated to ks[q] (<= 0 keeps all
// matches), with DocID resolved. Rank is deliberately left zero — rank
// is a property of the merged list and is assigned by MergeSegments on
// the router. They are laid out in out's space — the outer slice and
// each list grown in place as needed — so a caller that walks the lists
// and drops them can hand the same out back on every call (nil: fresh
// lists).
//
// Bit-identity with the in-process path holds because the scatter plan
// is built by the same batchScratch.prepare, per-posting scores depend
// only on collection-global statistics (segments share one physical
// index), and each query's contributions accumulate in ascending term
// order — an order independent of which other queries share the batch.
// The differential test in shardbatch_test.go (and the distributed tier's
// router tests) enforce it.
func RetrieveShardBatch(ctx context.Context, seg *index.Segmented, si int, model Model, queries [][]string, ks []int, opts BatchOptions, out [][]Hit) ([][]Hit, error) {
	if len(queries) != len(ks) {
		panic("ranking: RetrieveShardBatch queries/ks length mismatch")
	}
	if si < 0 || si >= seg.NumShards() {
		return nil, fmt.Errorf("ranking: shard %d out of range [0,%d)", si, seg.NumShards())
	}
	out = grow(out, len(queries))
	for q := range out {
		out[q] = out[q][:0]
	}
	if len(queries) == 0 {
		return out, nil
	}
	idx := seg.Index()
	b := batchPool.Get().(*batchScratch)
	defer b.release()
	if !b.prepare(idx, queries, ks, opts, model) {
		return out, nil
	}

	sc := shardScratchPool.Get().(*shardScratch)
	b.shards = append(b.shards, sc)
	if err := b.scoreShard(ctx, seg, si, model, queries, ks, sc); err != nil {
		return nil, err
	}
	for q, hl := range sc.out {
		if len(hl) == 0 {
			continue
		}
		hits := append(out[q], hl...)
		for i := range hits {
			hits[i].DocID = idx.DocID(hits[i].Doc)
		}
		out[q] = hits
	}
	return out, nil
}
