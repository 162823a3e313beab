package index

// Segmented partitions an Index's document space into contiguous shards —
// the scale-out unit of the retrieval layer. The segments share one
// physical index (dictionary, postings, document store, collection
// statistics), so term statistics and per-document scores are computed
// against the *global* collection no matter which shard a document lives
// in: per-shard scoring followed by a deterministic merge is bit-identical
// to scoring the monolithic index. A Shard view exposes the slice of each
// posting list that falls inside its document range, which per-shard
// workers traverse independently and in parallel.
//
// Segmented is immutable and safe for concurrent use, like Index.
type Segmented struct {
	idx    *Index
	bounds []int32 // len = shards+1; bounds[0] = 0, bounds[last] = NumDocs
}

// SegmentIndex partitions x into n contiguous, near-equal document ranges.
// n is clamped to [1, NumDocs] (an empty index gets one empty shard), so
// the result always has at least one shard and no shard is empty unless
// the collection is.
func SegmentIndex(x *Index, n int) *Segmented {
	docs := x.NumDocs()
	if n < 1 {
		n = 1
	}
	if n > docs && docs > 0 {
		n = docs
	}
	if docs == 0 {
		n = 1
	}
	bounds := make([]int32, n+1)
	for i := 1; i <= n; i++ {
		bounds[i] = int32(i * docs / n)
	}
	return &Segmented{idx: x, bounds: bounds}
}

// BuildSegmented is Build followed by SegmentIndex: the segmented build
// path for callers that know their shard count up front (cmd/buildindex,
// the engine). The Builder must not be used afterwards.
func (b *Builder) BuildSegmented(shards int) *Segmented {
	return SegmentIndex(b.Build(), shards)
}

// segmentedFromSizes reassembles a Segmented from the shard sizes an
// image records. The sizes must be non-negative and sum to NumDocs.
func segmentedFromSizes(x *Index, sizes []int64) (*Segmented, bool) {
	if len(sizes) == 0 {
		return nil, false
	}
	bounds := make([]int32, len(sizes)+1)
	var at int64
	for i, sz := range sizes {
		if sz < 0 {
			return nil, false
		}
		at += sz
		if at > int64(x.NumDocs()) {
			return nil, false
		}
		bounds[i+1] = int32(at)
	}
	if at != int64(x.NumDocs()) {
		return nil, false
	}
	return &Segmented{idx: x, bounds: bounds}, true
}

// Index returns the shared physical index.
func (s *Segmented) Index() *Index { return s.idx }

// NumShards returns the number of segments.
func (s *Segmented) NumShards() int { return len(s.bounds) - 1 }

// Shard returns the i-th segment view.
func (s *Segmented) Shard(i int) Shard {
	return Shard{idx: s.idx, lo: s.bounds[i], hi: s.bounds[i+1]}
}

// ShardSizes returns the per-shard document counts (for stats endpoints
// and the image's shard section).
func (s *Segmented) ShardSizes() []int {
	sizes := make([]int, s.NumShards())
	for i := range sizes {
		sizes[i] = int(s.bounds[i+1] - s.bounds[i])
	}
	return sizes
}

// Resegment returns a view of the same physical index partitioned into n
// shards. Repartitioning is O(n): only the boundary list is rebuilt.
func (s *Segmented) Resegment(n int) *Segmented { return SegmentIndex(s.idx, n) }

// Shard is one contiguous document range [Lo, Hi) of a segmented index.
// It is a view: copying it is cheap and no state is owned.
type Shard struct {
	idx    *Index
	lo, hi int32
}

// DocRange returns the half-open internal document range [lo, hi) the
// shard covers. Document numbers are global: a shard-local accumulator
// index plus lo recovers the collection-wide document number.
func (sh Shard) DocRange() (lo, hi int32) { return sh.lo, sh.hi }

// NumDocs returns the number of documents in the shard.
func (sh Shard) NumDocs() int { return int(sh.hi - sh.lo) }

// Iter returns a posting iterator over the portion of the term's list
// whose documents fall inside the shard — the hot-path shard view. The
// range is located at BLOCK granularity: a binary search over block
// headers lands on the first block that can contain the shard's lower
// bound, and decoded blocks are clipped to the document range, so a block
// straddling a shard boundary is handled by clipping, never by byte-level
// offsets into the compressed stream. Release the iterator when done.
func (sh Shard) Iter(id int32) PostingIterator {
	return sh.idx.iterRange(id, sh.lo, sh.hi)
}

// Postings returns the portion of the term's posting list whose documents
// fall inside the shard, decoded into a fresh slice. Hot paths stream
// through Iter instead.
func (sh Shard) Postings(id int32) []Posting {
	var out []Posting
	it := sh.idx.iterRange(id, sh.lo, sh.hi)
	for blk := it.NextBlock(); blk != nil; blk = it.NextBlock() {
		out = append(out, blk...)
	}
	it.Release()
	return out
}
