package index

import (
	"encoding/binary"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Block-compressed posting storage: each term's posting list is split into
// fixed-capacity blocks of (docID delta, term frequency) pairs encoded as
// unsigned varints — one delta chain per term, with headers marking block
// boundaries so the list can be traversed (and skipped) block at a time
// without touching the bytes in between. A posting lands around 2–3 bytes plus ~0.1 bytes of header at the default
// block size, against 8 for a []Posting struct — what lets a node hold a
// several-times-larger corpus in the same memory. It is the only posting
// layout: Builder.SetBlockSize varies the block capacity (tests sweep
// block boundaries with it), never the encoding.
//
// Every block header carries the block's largest document number, so
// SeekGE lands on block starts by binary search over headers and decodes
// only the one block that can contain the target — the skip structure
// Block-Max evaluation (ranking's MaxScore path) rides on. Per-block
// score maxima live index-wide in Index.blockMax, keyed like the per-term
// max-score tables.

// DefaultBlockSize is the posting-block capacity used when a Builder or
// loader is not told otherwise. 128 is the standard operating point of
// the block-max literature: blocks are small enough that a skipped block
// saves real work and large enough that header overhead stays below a
// bit per posting.
const DefaultBlockSize = 128

// MaxBlockSize caps the posting-block capacity. The image reader rejects
// a larger blockCap as hostile, so the builder (normBlockSize) clamps
// here — any configured size builds an index that can round-trip through
// its image.
const MaxBlockSize = 1 << 20

// blockHeader describes one encoded block of a term's posting list.
type blockHeader struct {
	maxDoc int32  // largest document number in the block
	off    uint32 // byte offset of the block's first posting in the term's data
	n      int32  // number of postings in the block
}

// blockHeaderBytes is the in-memory footprint of a blockHeader (three
// 4-byte fields, no padding) — used by Storage accounting.
const blockHeaderBytes = 12

// postingList is the per-term posting storage: the delta-varint byte
// stream and the headers of its blocks (both nil for an empty list).
type postingList struct {
	n      int32  // document frequency
	data   []byte // delta-varint (doc, tf) stream
	blocks []blockHeader
	blk0   int32 // index of blocks[0] in the index-wide block numbering
}

// appendBlocks encodes list into blocks of at most blockSize postings,
// appending to data (the term's byte stream) and returning the grown
// stream plus the headers. The delta chain is continuous across blocks —
// block i's first delta is relative to block i-1's last document (-1
// before the first block) — so a block decodes independently given the
// previous header's maxDoc.
func appendBlocks(data []byte, list []Posting, blockSize int) ([]byte, []blockHeader) {
	if len(list) == 0 {
		return data, nil
	}
	blocks := make([]blockHeader, 0, (len(list)+blockSize-1)/blockSize)
	prev := int32(-1)
	for start := 0; start < len(list); start += blockSize {
		end := start + blockSize
		if end > len(list) {
			end = len(list)
		}
		h := blockHeader{off: uint32(len(data)), n: int32(end - start), maxDoc: list[end-1].Doc}
		for _, p := range list[start:end] {
			data = binary.AppendUvarint(data, uint64(p.Doc-prev))
			data = binary.AppendUvarint(data, uint64(p.TF))
			prev = p.Doc
		}
		blocks = append(blocks, h)
	}
	return data, blocks
}

// decodeBlock appends the postings of block h to dst. base is the last
// document of the preceding block (-1 for the first). The byte stream was
// written by Build, so decoding is branch-lean and trusts the invariants:
// every varint terminates and every delta is positive.
func decodeBlock(dst []Posting, data []byte, h blockHeader, base int32) []Posting {
	off := int(h.off)
	prev := base
	for i := int32(0); i < h.n; i++ {
		b := data[off]
		off++
		d := uint32(b & 0x7f)
		if b >= 0x80 {
			shift := 7
			for {
				b = data[off]
				off++
				d |= uint32(b&0x7f) << shift
				if b < 0x80 {
					break
				}
				shift += 7
			}
		}
		prev += int32(d)
		b = data[off]
		off++
		tf := uint32(b & 0x7f)
		if b >= 0x80 {
			shift := 7
			for {
				b = data[off]
				off++
				tf |= uint32(b&0x7f) << shift
				if b < 0x80 {
					break
				}
				shift += 7
			}
		}
		dst = append(dst, Posting{Doc: prev, TF: int32(tf)})
	}
	return dst
}

// decodeBlockSafe decodes block h from an UNVERIFIED byte region — a
// mapped image's posting bytes are served as they are, never validation-
// decoded at open (ReadSegmented runs every block of a slab through here
// once instead). end is
// the block's end offset within data (the next header's off, or the
// term's data length for the last block). Every structural property the
// branch-lean decoder trusts is checked here instead: terminating
// varints inside the block's byte range, positive in-range deltas, an
// exact posting count, and a final document matching the header's
// maxDoc (which open-time validation bounded by numDocs). ok=false
// means the block is corrupt; dst then holds garbage to discard.
func decodeBlockSafe(dst []Posting, data []byte, h blockHeader, base int32, end uint64) ([]Posting, bool) {
	if uint64(h.off) > end || end > uint64(len(data)) {
		return dst, false
	}
	b := data[h.off:end]
	at := 0
	prev := base
	for i := int32(0); i < h.n; i++ {
		d, n := binary.Uvarint(b[at:])
		if n <= 0 || d == 0 || d > uint64(math.MaxInt32) {
			return dst, false
		}
		at += n
		doc := int64(prev) + int64(d)
		if doc > int64(math.MaxInt32) {
			return dst, false
		}
		tf, n2 := binary.Uvarint(b[at:])
		if n2 <= 0 || tf > uint64(math.MaxInt32) {
			return dst, false
		}
		at += n2
		prev = int32(doc)
		dst = append(dst, Posting{Doc: prev, TF: int32(tf)})
	}
	if at != len(b) || prev != h.maxDoc {
		return dst, false
	}
	return dst, true
}

// materialize decodes the full posting list into a fresh slice — use
// iterators on hot paths. unverified selects the defensive decoder (image
// storage); a corrupt block truncates the materialized list at the
// corruption point.
func (pl *postingList) materialize(unverified bool) []Posting {
	if pl.n == 0 {
		return nil
	}
	out := make([]Posting, 0, pl.n)
	base := int32(-1)
	for i, h := range pl.blocks {
		if i > 0 {
			base = pl.blocks[i-1].maxDoc
		}
		if unverified {
			end := uint64(len(pl.data))
			if i+1 < len(pl.blocks) {
				end = uint64(pl.blocks[i+1].off)
			}
			dec, ok := decodeBlockSafe(out, pl.data, h, base, end)
			if !ok {
				return out
			}
			out = dec
			continue
		}
		out = decodeBlock(out, pl.data, h, base)
	}
	return out
}

// assemblePostings encodes Build's per-term posting slices into blocks of
// blockCap postings, numbering blocks index-wide.
func assemblePostings(postings [][]Posting, blockCap int) ([]postingList, int) {
	plists := make([]postingList, len(postings))
	nBlocks := 0
	for id, list := range postings {
		pl := &plists[id]
		pl.n = int32(len(list))
		data, blocks := appendBlocks(nil, list, blockCap)
		pl.data = data
		pl.blocks = blocks
		pl.blk0 = int32(nBlocks)
		nBlocks += len(blocks)
	}
	return plists, nBlocks
}

// seekPostings returns the smallest position >= pos whose posting's Doc
// is >= d. Galloping search: probes at exponentially growing strides from
// the cursor before binary-searching the bracketed range, so short hops
// (the common case — candidates arrive in ascending document order) cost
// O(1) and long skips stay O(log n).
func seekPostings(postings []Posting, pos int, d int32) int {
	n := len(postings)
	if pos >= n || postings[pos].Doc >= d {
		return pos
	}
	step := 1
	lo := pos + 1 // postings[pos].Doc < d
	hi := pos + step
	for hi < n && postings[hi].Doc < d {
		lo = hi + 1
		step <<= 1
		hi = pos + step
	}
	if hi > n {
		hi = n
	}
	// Invariant: postings[lo-1].Doc < d, postings[hi].Doc >= d (or hi==n).
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if postings[mid].Doc < d {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// blockScratch pools block-decode buffers. Buffers grow to the largest
// block capacity they ever decode and stay grown, so steady-state
// traversal allocates nothing.
var blockScratch = sync.Pool{New: func() any {
	s := make([]Posting, 0, DefaultBlockSize)
	return &s
}}

// Index-wide block I/O counters, flushed from per-iterator tallies on
// Release so the hot loops pay no atomic per block.
var (
	blocksDecodedTotal atomic.Int64
	blocksSkippedTotal atomic.Int64
)

// BlockIOStats reports process-wide block traversal counters: blocks
// decoded versus blocks skipped over by header (SeekGE/BlockUpperBound
// passing a block without touching its bytes). The serving layer surfaces
// the pair in /stats as the observable win of block-max skipping.
func BlockIOStats() (decoded, skipped int64) {
	return blocksDecodedTotal.Load(), blocksSkippedTotal.Load()
}

// PostingIterator streams one term's posting list — or the sub-range of
// it falling inside a shard's document range — block at a time, decoding
// lazily into pooled scratch. An iterator is single-use and not safe for
// concurrent use; call Release when done to return its scratch to the
// pool (forgetting Release leaks nothing — the buffer just falls to the
// garbage collector).
//
// Traversal is forward-only: Next/SeekGE/NextBlock never move backwards,
// and slices returned by NextBlock are valid only until the next method
// call or Release.
type PostingIterator struct {
	data   []byte
	blocks []blockHeader
	bmax   []float64 // optional per-block score maxima (aligned with blocks)

	lo, hi int32

	cb    int  // block whose postings cur holds (or will, once decoded)
	curOK bool // cur is decoded and clipped
	done  bool
	safe  bool // data is unverified (mapped): decode defensively
	cur   []Posting
	pos   int
	buf   *[]Posting // pooled scratch backing cur in compressed mode

	// m, when non-nil, is the mapping retained on the iterator's behalf:
	// the pages behind data stay addressable until Release even if the
	// index is Closed or its engine epoch is retired mid-traversal.
	m *Mapping

	nDecoded int32
	nSkipped int32
}

// iter builds an iterator over the document range [lo, hi). The range
// lands on block starts: a compressed list is positioned by binary search
// over block headers, never by element offset into the byte stream.
func (pl *postingList) iter(lo, hi int32) PostingIterator {
	it := PostingIterator{lo: lo, hi: hi}
	if pl.n == 0 {
		it.done = true
		return it
	}
	it.data = pl.data
	it.blocks = pl.blocks
	if lo > 0 {
		j := sort.Search(len(pl.blocks), func(i int) bool { return pl.blocks[i].maxDoc >= lo })
		if j == len(pl.blocks) {
			it.done = true
			return it
		}
		it.cb = j
	}
	return it
}

// SetBlockMax attaches the term's per-block score maxima (the slice
// Index.TermBlockMax returns) so BlockUpperBound can answer with a
// block-local bound. A nil or misaligned table is ignored.
func (it *PostingIterator) SetBlockMax(bmax []float64) {
	if len(bmax) == len(it.blocks) && len(bmax) > 0 {
		it.bmax = bmax
	}
}

// HasBlockMax reports whether a block-max table is attached — whether
// BlockUpperBound can ever answer with anything tighter than +Inf.
// Evaluators check it once per cursor and skip the per-probe
// BlockUpperBound call entirely on tableless lists.
func (it *PostingIterator) HasBlockMax() bool { return it.bmax != nil }

// decodeCur decodes block cb into scratch and clips it to [lo, hi),
// advancing past blocks that fall entirely below lo and flagging
// exhaustion when the range ends.
func (it *PostingIterator) decodeCur() {
	for {
		if it.cb >= len(it.blocks) {
			it.done = true
			return
		}
		h := it.blocks[it.cb]
		if h.maxDoc < it.lo {
			it.cb++
			it.nSkipped++
			continue
		}
		if it.buf == nil {
			it.buf = blockScratch.Get().(*[]Posting)
		}
		var buf []Posting
		if it.safe {
			end := uint64(len(it.data))
			if it.cb+1 < len(it.blocks) {
				end = uint64(it.blocks[it.cb+1].off)
			}
			dec, ok := decodeBlockSafe((*it.buf)[:0], it.data, h, it.base(), end)
			if !ok {
				// Corrupt mapped block: end the list here rather than
				// serve garbage. Built and slab-read storage never gets
				// here: its bytes were written by Build or validated.
				*it.buf = dec[:0]
				it.nDecoded++
				it.done = true
				return
			}
			buf = dec
		} else {
			buf = decodeBlock((*it.buf)[:0], it.data, h, it.base())
		}
		*it.buf = buf[:0]
		it.nDecoded++
		s := buf
		if it.lo > 0 && s[0].Doc < it.lo {
			s = s[seekPostings(s, 0, it.lo):]
		}
		if len(s) > 0 && s[len(s)-1].Doc >= it.hi {
			s = s[:seekPostings(s, 0, it.hi)]
			if len(s) == 0 {
				// Every remaining posting (this block's tail and all later
				// blocks) is >= hi.
				it.done = true
				return
			}
		}
		it.cur = s
		it.pos = 0
		it.curOK = true
		return
	}
}

// base returns the decode base of block cb: the previous block's last
// document, or -1 for the first block.
func (it *PostingIterator) base() int32 {
	if it.cb == 0 {
		return -1
	}
	return it.blocks[it.cb-1].maxDoc
}

// advanceBlock moves past the current block.
func (it *PostingIterator) advanceBlock() {
	if it.curOK && it.blocks[it.cb].maxDoc >= it.hi {
		it.done = true // later blocks lie entirely beyond the range
		return
	}
	it.cb++
	it.curOK = false
	if it.cb >= len(it.blocks) {
		it.done = true
	}
}

// NextBlock returns the remaining postings of the current block and
// advances to the next one, or nil when the list (range) is exhausted.
// Bulk traversals — the exhaustive evaluators — loop over NextBlock and
// range the returned slice: per posting that is a plain slice loop, with
// one decode per block in between. The slice is valid only until the
// next iterator call.
func (it *PostingIterator) NextBlock() []Posting {
	for !it.done {
		if !it.curOK {
			it.decodeCur()
			continue
		}
		blk := it.cur[it.pos:]
		it.pos = len(it.cur)
		it.advanceBlock()
		if len(blk) > 0 {
			return blk
		}
	}
	return nil
}

// Cur returns the posting at the current position without advancing,
// decoding lazily. ok is false once the iterator is exhausted. The
// common case — a decoded block with postings left — is a branch and a
// bounds check, small enough to inline into the evaluators' per-
// candidate loops; block transitions take the slow path.
func (it *PostingIterator) Cur() (Posting, bool) {
	if it.curOK && it.pos < len(it.cur) {
		return it.cur[it.pos], true
	}
	return it.curSlow()
}

// curSlow is Cur off the fast path: decode the pending block or step
// over exhausted ones until a posting is available.
func (it *PostingIterator) curSlow() (Posting, bool) {
	for !it.done {
		if !it.curOK {
			it.decodeCur()
			continue
		}
		if it.pos < len(it.cur) {
			return it.cur[it.pos], true
		}
		it.advanceBlock()
	}
	return Posting{}, false
}

// Advance steps one posting forward. Call only after Cur reported ok.
func (it *PostingIterator) Advance() { it.pos++ }

// Next returns the current posting and advances past it.
func (it *PostingIterator) Next() (Posting, bool) {
	p, ok := it.Cur()
	if ok {
		it.pos++
	}
	return p, ok
}

// curContains reports whether the current decoded block still has
// unconsumed postings and its last document reaches d — the shared fast
// path of SeekGE and BlockUpperBound.
func (it *PostingIterator) curContains(d int32) bool {
	return it.curOK && it.pos < len(it.cur) && it.cur[len(it.cur)-1].Doc >= d
}

// advanceToBlock parks the block cursor on the first not-yet-passed
// block whose header promises a document >= d, WITHOUT decoding it —
// headers in between are skipped and tallied. Precondition (the
// curContains fast path): the current decoded block, if any, has no
// unconsumed posting >= d. Returns false — flagging exhaustion — when no
// such block remains. SeekGE and BlockUpperBound share this so the block
// cursor can never desynchronize between a bound probe and the decode
// trusting it.
func (it *PostingIterator) advanceToBlock(d int32) bool {
	s := it.cb
	if it.curOK {
		s = it.cb + 1 // the decoded block is spent for targets >= d
	}
	j := s + sort.Search(len(it.blocks)-s, func(i int) bool { return it.blocks[s+i].maxDoc >= d })
	if j == len(it.blocks) {
		it.done = true
		return false
	}
	it.nSkipped += int32(j - s)
	it.cb = j
	it.curOK = false
	return true
}

// SeekGE positions the iterator at the first posting with Doc >= d and
// returns it. Within the current decoded block it gallops from the
// cursor; beyond it, it binary-searches block headers — skipping whole
// blocks without decoding them — and decodes only the landing block.
// Like all traversal, seeks must be monotone (d never decreases).
func (it *PostingIterator) SeekGE(d int32) (Posting, bool) {
	if it.done {
		return Posting{}, false
	}
	if it.curContains(d) {
		it.pos = seekPostings(it.cur, it.pos, d)
		return it.cur[it.pos], true
	}
	if !it.advanceToBlock(d) {
		return Posting{}, false
	}
	it.decodeCur()
	if it.done {
		return Posting{}, false
	}
	it.pos = seekPostings(it.cur, 0, d)
	if it.pos >= len(it.cur) {
		// The landing block's header promised a doc >= d but the range
		// clip removed it: everything from here on is >= hi.
		it.done = true
		return Posting{}, false
	}
	return it.cur[it.pos], true
}

// BlockUpperBound returns an upper bound on the model score any posting
// with Doc >= d can contribute, by advancing the block cursor to the
// first block that can contain d WITHOUT decoding it and reading the
// attached block-max table. ok=false means the list has no posting >= d
// (its contribution is exactly zero). Without a table the bound is +Inf —
// callers fall back to their term-level bound. A subsequent SeekGE(d)
// decodes the block the cursor parked on; when the bound already proves
// the block useless, that decode never happens — the Block-Max bailout.
func (it *PostingIterator) BlockUpperBound(d int32) (float64, bool) {
	if it.done {
		return 0, false
	}
	if !it.curContains(d) && !it.advanceToBlock(d) {
		return 0, false
	}
	if it.bmax != nil {
		return it.bmax[it.cb], true
	}
	return math.Inf(1), true
}

// Release returns the iterator's scratch buffer to the pool, flushes
// its block I/O tallies, and drops the iterator's reference on the
// backing mapping (mapped indexes only — the reference that keeps an
// epoch swap from unmapping pages mid-traversal). The iterator must not
// be used afterwards. Releasing an iterator that never decoded (or
// twice, as long as the struct was not copied in between) is a no-op;
// on mapped indexes Release is mandatory, since a leaked reference
// keeps the file mapped.
func (it *PostingIterator) Release() {
	if it.buf != nil {
		blockScratch.Put(it.buf)
		it.buf = nil
	}
	it.cur = nil
	it.data = nil
	it.curOK = false
	it.done = true
	if it.m != nil {
		it.m.release()
		it.m = nil
	}
	if it.nDecoded != 0 {
		blocksDecodedTotal.Add(int64(it.nDecoded))
		it.nDecoded = 0
	}
	if it.nSkipped != 0 {
		blocksSkippedTotal.Add(int64(it.nSkipped))
		it.nSkipped = 0
	}
}

// normBlockSize maps Builder.SetBlockSize's argument onto a block
// capacity: n <= 0 means DefaultBlockSize, and sizes beyond MaxBlockSize
// clamp so every built index stays readable from its own image.
func normBlockSize(n int) int {
	if n <= 0 {
		return DefaultBlockSize
	}
	return min(n, MaxBlockSize)
}

// StorageStats describes the posting-storage footprint of an index.
type StorageStats struct {
	Postings int64 // total postings across the dictionary
	Blocks   int64 // posting blocks
	// Bytes is the posting payload: encoded bytes plus block headers.
	Bytes           int64
	BlockSize       int     // block capacity
	BytesPerPosting float64 // Bytes / Postings (0 for an empty index)
}

// Storage reports the posting-storage footprint — the number the
// compression exists to shrink. /stats, cmd/buildindex and repro footprint
// surface it; benchmarks report BytesPerPosting next to ns/op.
func (x *Index) Storage() StorageStats {
	st := StorageStats{BlockSize: x.blockCap}
	for id := range x.plists {
		pl := &x.plists[id]
		st.Postings += int64(pl.n)
		st.Blocks += int64(len(pl.blocks))
		st.Bytes += int64(len(pl.data)) + int64(len(pl.blocks))*blockHeaderBytes
	}
	if st.Postings > 0 {
		st.BytesPerPosting = float64(st.Bytes) / float64(st.Postings)
	}
	return st
}
