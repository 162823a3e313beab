package index

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
)

// Binary serialization of an Index. Layout (all integers unsigned varints
// unless noted):
//
//	magic  "RIDX5\n"
//	blockCap (0 = the index was laid out flat; loaders materialize)
//	numDocs, then per doc: idLen, idBytes, docLen
//	totalTokens
//	numTerms, then per term (in term-id order):
//	    termLen, termBytes, cf, df,
//	    numBlocks, then per block: count, byteLen, byteLen raw bytes —
//	    the block's postings as (docDelta, tf) varints with
//	    docDelta = doc - prevDoc (first delta of the whole term = doc + 1,
//	    the chain running continuously across blocks)
//	numShards, then per shard: shard document count
//	numTables, then per table (in sorted key order):
//	    keyLen, keyBytes, numTerms float64s (8-byte little-endian)
//	numBlockTables, then per table (in sorted key order):
//	    keyLen, keyBytes, totalBlocks float64s
//
// The format is self-contained and versioned by the magic string. RIDX5 is
// the only single-index stream read or written: the dictionary is in
// lexicographic term order (the Build invariant — a violation means
// corruption), the shard manifest records the contiguous segments a
// Segmented index was partitioned into, the posting section is explicit
// blocks — the on-disk twin of the in-memory block-compressed layout,
// written verbatim so loading re-encodes nothing — and the max-score and
// block-max tables let a served index prune from its first query. The
// flat-posting RIDX1–RIDX4 streams of early builds, which nothing has
// written since RIDX5, are ErrBadFormat like any other foreign magic.

const (
	magicV6 = "RIDX6\n"
	magicV5 = "RIDX5\n"
)

// ErrBadFormat reports a corrupt or foreign index stream.
var ErrBadFormat = errors.New("index: bad index format")

// WriteTo serializes the index to w as a single-shard v5 stream.
func (x *Index) WriteTo(w io.Writer) (int64, error) {
	return x.writeStream(w, nil)
}

// WriteTo serializes the segmented index to w, recording the shard
// partition in the stream's manifest.
func (s *Segmented) WriteTo(w io.Writer) (int64, error) {
	return s.idx.writeStream(w, s.bounds)
}

// writeStream emits the v5 stream. bounds carries the shard boundaries of
// a Segmented (len shards+1); nil means a single shard covering every
// document. A flat-layout index is transported in DefaultBlockSize blocks
// with blockCap recorded as 0, so the loader restores the flat layout.
func (x *Index) writeStream(w io.Writer, bounds []int32) (int64, error) {
	bw := bufio.NewWriter(w)
	n := int64(0)
	write := func(p []byte) error {
		m, err := bw.Write(p)
		n += int64(m)
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		m := binary.PutUvarint(buf[:], v)
		return write(buf[:m])
	}
	writeString := func(s string) error {
		if err := writeUvarint(uint64(len(s))); err != nil {
			return err
		}
		return write([]byte(s))
	}

	if err := write([]byte(magicV5)); err != nil {
		return n, err
	}
	if err := writeUvarint(uint64(x.blockCap)); err != nil {
		return n, err
	}
	if err := writeUvarint(uint64(len(x.docIDs))); err != nil {
		return n, err
	}
	for i, id := range x.docIDs {
		if err := writeString(id); err != nil {
			return n, err
		}
		if err := writeUvarint(uint64(x.docLens[i])); err != nil {
			return n, err
		}
	}
	if err := writeUvarint(uint64(x.total)); err != nil {
		return n, err
	}
	if err := writeUvarint(uint64(len(x.termList))); err != nil {
		return n, err
	}
	for id, term := range x.termList {
		if err := writeString(term); err != nil {
			return n, err
		}
		pl := &x.plists[id]
		if err := writeUvarint(uint64(x.cf[id])); err != nil {
			return n, err
		}
		if err := writeUvarint(uint64(pl.n)); err != nil {
			return n, err
		}
		data, blocks := pl.data, pl.blocks
		if pl.flat != nil {
			// Transport encoding for the flat layout.
			data, blocks = appendBlocks(nil, pl.flat, DefaultBlockSize)
		}
		if err := writeUvarint(uint64(len(blocks))); err != nil {
			return n, err
		}
		for bi, h := range blocks {
			end := uint32(len(data))
			if bi+1 < len(blocks) {
				end = blocks[bi+1].off
			}
			if err := writeUvarint(uint64(h.n)); err != nil {
				return n, err
			}
			if err := writeUvarint(uint64(end - h.off)); err != nil {
				return n, err
			}
			if err := write(data[h.off:end]); err != nil {
				return n, err
			}
		}
	}
	// Shard manifest: per-shard document counts in shard order.
	if bounds == nil {
		if err := writeUvarint(1); err != nil {
			return n, err
		}
		if err := writeUvarint(uint64(len(x.docIDs))); err != nil {
			return n, err
		}
	} else {
		if err := writeUvarint(uint64(len(bounds) - 1)); err != nil {
			return n, err
		}
		for i := 1; i < len(bounds); i++ {
			if err := writeUvarint(uint64(bounds[i] - bounds[i-1])); err != nil {
				return n, err
			}
		}
	}
	// Max-score and block-max blocks: the score upper-bound tables, in
	// sorted key order so the stream is canonical.
	var f64 [8]byte
	writeTables := func(keys []string, tables map[string][]float64) error {
		if err := writeUvarint(uint64(len(keys))); err != nil {
			return err
		}
		for _, key := range keys {
			if err := writeString(key); err != nil {
				return err
			}
			for _, v := range tables[key] {
				binary.LittleEndian.PutUint64(f64[:], math.Float64bits(v))
				if err := write(f64[:]); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := writeTables(x.MaxScoreKeys(), x.maxScores); err != nil {
		return n, err
	}
	if err := writeTables(x.BlockMaxKeys(), x.blockMax); err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// Read deserializes an index written by WriteTo (or, through the same
// entry point, a RIDX7 image); see the format comment above. The shard
// manifest is consumed and dropped: callers that care about the partition
// use ReadSegmented.
func Read(r io.Reader) (*Index, error) {
	x, _, err := readStream(r)
	return x, err
}

// ReadSegmented deserializes an index together with its shard manifest.
// The max-score and block-max tables load with either entry point.
func ReadSegmented(r io.Reader) (*Segmented, error) {
	x, sizes, err := readStream(r)
	if err != nil {
		return nil, err
	}
	seg, ok := segmentedFromSizes(x, sizes)
	if !ok {
		return nil, fmt.Errorf("%w: shard manifest %v does not cover %d docs",
			ErrBadFormat, sizes, x.NumDocs())
	}
	return seg, nil
}

// readStream parses a RIDX5 stream or RIDX7 image, returning the index and
// the manifest's per-shard document counts.
func readStream(r io.Reader) (*Index, []int64, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magicV5))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	switch string(head) {
	case magicV7:
		// The mapped layout arriving through the streaming entry point:
		// slurp the remaining bytes and parse them as an owned slab —
		// same in-place views, no refcounted mapping, GC-managed
		// lifetime. (OpenMapped is the zero-copy path; this one exists
		// so every RIDX version loads through Read/ReadSegmented/
		// ReadManifest alike.)
		rest, err := io.ReadAll(io.LimitReader(br, 1<<33))
		if err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
		}
		buf := make([]byte, 0, len(head)+len(rest))
		buf = append(buf, head...)
		buf = append(buf, rest...)
		return parseV7(buf, nil)
	case magicV5:
	default:
		return nil, nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, head)
	}
	readUvarint := func() (uint64, error) { return binary.ReadUvarint(br) }
	readString := func() (string, error) {
		l, err := readUvarint()
		if err != nil {
			return "", err
		}
		if l > 1<<24 {
			return "", fmt.Errorf("%w: string too long (%d)", ErrBadFormat, l)
		}
		b := make([]byte, l)
		if _, err := io.ReadFull(br, b); err != nil {
			return "", err
		}
		return string(b), nil
	}

	blockCap, err := readUvarint()
	if err != nil {
		return nil, nil, fmt.Errorf("%w: blockCap: %v", ErrBadFormat, err)
	}
	if blockCap > MaxBlockSize {
		return nil, nil, fmt.Errorf("%w: blockCap %d out of range", ErrBadFormat, blockCap)
	}
	numDocs, err := readUvarint()
	if err != nil {
		return nil, nil, fmt.Errorf("%w: numDocs: %v", ErrBadFormat, err)
	}
	if numDocs > 1<<31 {
		return nil, nil, fmt.Errorf("%w: numDocs %d too large", ErrBadFormat, numDocs)
	}
	// Counts are untrusted until that many entries have actually been
	// parsed: grow from a capped capacity instead of pre-allocating, so a
	// corrupt count fails with a parse error, not an OOM. (Every entry is
	// at least one byte, so a truncated stream runs out of input long
	// before the slices grow pathological.)
	x := &Index{
		docIDs:  make([]string, 0, capHint(numDocs)),
		docLens: make([]int32, 0, capHint(numDocs)),
		terms:   make(map[string]int32, 1024),
	}
	for i := uint64(0); i < numDocs; i++ {
		id, err := readString()
		if err != nil {
			return nil, nil, fmt.Errorf("%w: docID %d: %v", ErrBadFormat, i, err)
		}
		dl, err := readUvarint()
		if err != nil {
			return nil, nil, fmt.Errorf("%w: docLen %d: %v", ErrBadFormat, i, err)
		}
		x.docIDs = append(x.docIDs, id)
		x.docLens = append(x.docLens, int32(dl))
	}
	total, err := readUvarint()
	if err != nil {
		return nil, nil, fmt.Errorf("%w: totalTokens: %v", ErrBadFormat, err)
	}
	x.total = int64(total)
	numTerms, err := readUvarint()
	if err != nil {
		return nil, nil, fmt.Errorf("%w: numTerms: %v", ErrBadFormat, err)
	}
	if numTerms > 1<<31 {
		return nil, nil, fmt.Errorf("%w: numTerms %d too large", ErrBadFormat, numTerms)
	}
	x.termList = make([]string, 0, capHint(numTerms))
	x.cf = make([]int64, 0, capHint(numTerms))
	x.plists = make([]postingList, 0, capHint(numTerms))
	for id := uint64(0); id < numTerms; id++ {
		term, err := readString()
		if err != nil {
			return nil, nil, fmt.Errorf("%w: term %d: %v", ErrBadFormat, id, err)
		}
		x.termList = append(x.termList, term)
		x.terms[term] = int32(id)
		cf, err := readUvarint()
		if err != nil {
			return nil, nil, fmt.Errorf("%w: cf: %v", ErrBadFormat, err)
		}
		x.cf = append(x.cf, int64(cf))
		df, err := readUvarint()
		if err != nil {
			return nil, nil, fmt.Errorf("%w: df: %v", ErrBadFormat, err)
		}
		if df > numDocs {
			return nil, nil, fmt.Errorf("%w: df %d > numDocs %d", ErrBadFormat, df, numDocs)
		}
		pl, err := readBlockedPostings(br, df, numDocs)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: term %q: %v", ErrBadFormat, term, err)
		}
		x.plists = append(x.plists, pl)
	}
	// The stream promises a sorted dictionary; a violation means corruption.
	if !sort.StringsAreSorted(x.termList) {
		return nil, nil, fmt.Errorf("%w: dictionary not in sorted order", ErrBadFormat)
	}
	if blockCap == 0 {
		// The stream says the index was flat: restore that layout from the
		// transport blocks.
		x.blockCap = 0
		for id := range x.plists {
			pl := &x.plists[id]
			*pl = postingList{n: pl.n, flat: pl.materialize(false)}
		}
	} else {
		x.blockCap = int(blockCap)
		nBlocks := 0
		for id := range x.plists {
			pl := &x.plists[id]
			if int(pl.n) > 0 {
				for _, h := range pl.blocks {
					if int(h.n) > x.blockCap {
						return nil, nil, fmt.Errorf("%w: block of %d postings exceeds blockCap %d",
							ErrBadFormat, h.n, x.blockCap)
					}
				}
			}
			pl.blk0 = int32(nBlocks)
			nBlocks += len(pl.blocks)
		}
		x.nBlocks = nBlocks
	}
	numShards, err := readUvarint()
	if err != nil {
		return nil, nil, fmt.Errorf("%w: shard manifest: %v", ErrBadFormat, err)
	}
	if numShards == 0 || numShards > numDocs+1 {
		return nil, nil, fmt.Errorf("%w: shard count %d out of range", ErrBadFormat, numShards)
	}
	sizes := make([]int64, 0, capHint(numShards))
	for i := uint64(0); i < numShards; i++ {
		sz, err := readUvarint()
		if err != nil {
			return nil, nil, fmt.Errorf("%w: shard size %d: %v", ErrBadFormat, i, err)
		}
		sizes = append(sizes, int64(sz))
	}
	if err := readScoreTables(br, x, "max-score", x.NumTerms(), x.SetMaxScores); err != nil {
		return nil, nil, err
	}
	// SetBlockMaxScores enforces the layout contract: tables on a flat
	// index are rejected, zero-entry tables on a blocked-but-empty index
	// (nBlocks 0) round-trip — the writer emits them.
	if err := readScoreTables(br, x, "block-max", x.nBlocks, x.SetBlockMaxScores); err != nil {
		return nil, nil, err
	}
	return x, sizes, nil
}

// readBlockedPostings parses one term's v5 posting blocks, validating
// every count, length and decoded document before the list is accepted:
// hostile block counts or byte lengths error, never panic or OOM, and an
// accepted list upholds the invariants the branch-lean hot-path decoder
// trusts (terminating varints, strictly ascending in-range documents).
func readBlockedPostings(br *bufio.Reader, df, numDocs uint64) (postingList, error) {
	numBlocks, err := binary.ReadUvarint(br)
	if err != nil {
		return postingList{}, fmt.Errorf("block count: %v", err)
	}
	pl := postingList{n: int32(df)}
	if df == 0 {
		if numBlocks != 0 {
			return postingList{}, fmt.Errorf("%d blocks for empty posting list", numBlocks)
		}
		return pl, nil
	}
	if numBlocks == 0 || numBlocks > df {
		return postingList{}, fmt.Errorf("block count %d out of range for df %d", numBlocks, df)
	}
	blocks := make([]blockHeader, 0, capHint(numBlocks))
	data := make([]byte, 0, capHint(2*df))
	var seen uint64
	prev := int32(-1)
	for bi := uint64(0); bi < numBlocks; bi++ {
		cnt, err := binary.ReadUvarint(br)
		if err != nil {
			return postingList{}, fmt.Errorf("block %d count: %v", bi, err)
		}
		if cnt == 0 || seen+cnt > df {
			return postingList{}, fmt.Errorf("block %d count %d overflows df %d", bi, cnt, df)
		}
		byteLen, err := binary.ReadUvarint(br)
		if err != nil {
			return postingList{}, fmt.Errorf("block %d length: %v", bi, err)
		}
		// Each posting is at least 2 bytes and at most two 5-byte varints.
		if byteLen < 2*cnt || byteLen > 10*cnt {
			return postingList{}, fmt.Errorf("block %d byte length %d implausible for %d postings", bi, byteLen, cnt)
		}
		off := uint32(len(data))
		data = append(data, make([]byte, byteLen)...)
		if _, err := io.ReadFull(br, data[off:]); err != nil {
			return postingList{}, fmt.Errorf("block %d bytes: %v", bi, err)
		}
		// Validation decode: the bytes must contain exactly cnt postings
		// with strictly ascending in-range documents and in-range TFs.
		rest := data[off:]
		blkPrev := prev
		for j := uint64(0); j < cnt; j++ {
			delta, m := binary.Uvarint(rest)
			if m <= 0 || delta == 0 || delta > uint64(math.MaxInt32) {
				return postingList{}, fmt.Errorf("block %d posting %d: bad doc delta", bi, j)
			}
			rest = rest[m:]
			doc := int64(blkPrev) + int64(delta)
			if doc >= int64(numDocs) {
				return postingList{}, fmt.Errorf("block %d: doc %d out of range", bi, doc)
			}
			tf, m := binary.Uvarint(rest)
			if m <= 0 || tf > uint64(math.MaxInt32) {
				return postingList{}, fmt.Errorf("block %d posting %d: bad tf", bi, j)
			}
			rest = rest[m:]
			blkPrev = int32(doc)
		}
		if len(rest) != 0 {
			return postingList{}, fmt.Errorf("block %d: %d trailing bytes", bi, len(rest))
		}
		blocks = append(blocks, blockHeader{maxDoc: blkPrev, off: off, n: int32(cnt)})
		prev = blkPrev
		seen += cnt
	}
	if seen != df {
		return postingList{}, fmt.Errorf("blocks carry %d postings, df says %d", seen, df)
	}
	pl.data = data
	pl.blocks = blocks
	return pl, nil
}

// A Manifest is the multi-segment epoch the v6 stream persists: the
// sealed segments of an LSM-style live index (oldest first), the epoch
// counter of the snapshot, and the tombstoned document IDs whose segment
// copies are dead. Each segment is embedded as a self-delimiting v5
// stream, so the v6 format is the v5 format lifted from one index to a
// segment list. A bare v5 stream (or v7 image) reads back as a
// single-segment manifest at epoch 0 with no tombstones, so every
// single-index file is a valid (frozen) epoch.
type Manifest struct {
	Epoch      uint64
	Segments   []*Segmented
	Tombstones []string
}

// maxManifestSegments bounds the segment count a manifest may declare —
// far above what any real lifecycle accumulates between compactions, low
// enough that a hostile count fails fast.
const maxManifestSegments = 1 << 10

// WriteTo serializes the manifest as a v6 stream. Layout:
//
//	magic "RIDX6\n"
//	epoch
//	numSegments, then per segment: a complete v5 stream (see writeStream)
//	numTombstones, then per tombstone: idLen, idBytes
func (m *Manifest) WriteTo(w io.Writer) (int64, error) {
	// bufio.NewWriter returns bw itself for the nested writeStream calls,
	// so the embedded segments share this buffer.
	bw := bufio.NewWriter(w)
	n := int64(0)
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		k := binary.PutUvarint(buf[:], v)
		k, err := bw.Write(buf[:k])
		n += int64(k)
		return err
	}
	k, err := bw.WriteString(magicV6)
	n += int64(k)
	if err != nil {
		return n, err
	}
	if err := writeUvarint(m.Epoch); err != nil {
		return n, err
	}
	if err := writeUvarint(uint64(len(m.Segments))); err != nil {
		return n, err
	}
	for _, seg := range m.Segments {
		k, err := seg.idx.writeStream(bw, seg.bounds)
		n += k
		if err != nil {
			return n, err
		}
	}
	if err := writeUvarint(uint64(len(m.Tombstones))); err != nil {
		return n, err
	}
	for _, id := range m.Tombstones {
		if err := writeUvarint(uint64(len(id))); err != nil {
			return n, err
		}
		k, err := bw.WriteString(id)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadManifest deserializes a manifest written by Manifest.WriteTo, or
// lifts a single-index stream (v5, v7) into a single-segment manifest at
// epoch 0. Hostile segment or tombstone counts error — never panic or
// OOM: counts are untrusted until that many entries have parsed, and every
// embedded segment goes through the fully validating v5 reader.
func ReadManifest(r io.Reader) (*Manifest, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(magicV6))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if string(head) != magicV6 {
		// Single-index stream: one frozen segment, epoch 0. readStream consumes
		// from br directly (bufio.NewReader returns br itself), so the
		// magic dispatch costs nothing.
		seg, err := ReadSegmented(br)
		if err != nil {
			return nil, err
		}
		return &Manifest{Segments: []*Segmented{seg}}, nil
	}
	if _, err := br.Discard(len(magicV6)); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	epoch, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: manifest epoch: %v", ErrBadFormat, err)
	}
	numSegs, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: segment count: %v", ErrBadFormat, err)
	}
	if numSegs == 0 || numSegs > maxManifestSegments {
		return nil, fmt.Errorf("%w: segment count %d out of range", ErrBadFormat, numSegs)
	}
	man := &Manifest{Epoch: epoch, Segments: make([]*Segmented, 0, capHint(numSegs))}
	for i := uint64(0); i < numSegs; i++ {
		x, sizes, err := readStream(br)
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", i, err)
		}
		seg, ok := segmentedFromSizes(x, sizes)
		if !ok {
			return nil, fmt.Errorf("%w: segment %d: shard manifest %v does not cover %d docs",
				ErrBadFormat, i, sizes, x.NumDocs())
		}
		man.Segments = append(man.Segments, seg)
	}
	numTombs, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: tombstone count: %v", ErrBadFormat, err)
	}
	if numTombs > 1<<31 {
		return nil, fmt.Errorf("%w: tombstone count %d out of range", ErrBadFormat, numTombs)
	}
	man.Tombstones = make([]string, 0, capHint(numTombs))
	for i := uint64(0); i < numTombs; i++ {
		l, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: tombstone %d: %v", ErrBadFormat, i, err)
		}
		if l > 1<<24 {
			return nil, fmt.Errorf("%w: tombstone %d: id too long (%d)", ErrBadFormat, i, l)
		}
		b := make([]byte, l)
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, fmt.Errorf("%w: tombstone %d: %v", ErrBadFormat, i, err)
		}
		man.Tombstones = append(man.Tombstones, string(b))
	}
	return man, nil
}

// capHint bounds the initial capacity allocated for an untrusted element
// count: enough to avoid regrowth on every real-world stream, small
// enough that a hostile count cannot allocate beyond it before parsing
// fails.
func capHint(n uint64) int {
	const max = 1 << 16
	if n > max {
		return max
	}
	return int(n)
}

// readScoreTables parses a score-table section (the max-score and
// block-max blocks share the format): numTables, then per table
// a key and entries float64 values, attached through set. Corrupt or
// truncated sections error (never panic): counts, key uniqueness and the
// finite-nonnegative value contract are all validated before the table is
// attached — set is the validator of last resort.
func readScoreTables(br *bufio.Reader, x *Index, what string, entries int, set func(string, []float64) error) error {
	numTables, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("%w: %s table count: %v", ErrBadFormat, what, err)
	}
	if numTables > 1<<12 {
		return fmt.Errorf("%w: %d %s tables", ErrBadFormat, numTables, what)
	}
	var f64 [8]byte
	for ti := uint64(0); ti < numTables; ti++ {
		keyLen, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("%w: %s key: %v", ErrBadFormat, what, err)
		}
		if keyLen == 0 || keyLen > 1<<10 {
			return fmt.Errorf("%w: %s key length %d", ErrBadFormat, what, keyLen)
		}
		kb := make([]byte, keyLen)
		if _, err := io.ReadFull(br, kb); err != nil {
			return fmt.Errorf("%w: %s key: %v", ErrBadFormat, what, err)
		}
		key := string(kb)
		if _, dup := x.maxScores[key]; dup && what == "max-score" {
			return fmt.Errorf("%w: duplicate max-score table %q", ErrBadFormat, key)
		}
		if _, dup := x.blockMax[key]; dup && what == "block-max" {
			return fmt.Errorf("%w: duplicate block-max table %q", ErrBadFormat, key)
		}
		scores := make([]float64, 0, capHint(uint64(entries)))
		for i := 0; i < entries; i++ {
			if _, err := io.ReadFull(br, f64[:]); err != nil {
				return fmt.Errorf("%w: %s table %q entry %d: %v", ErrBadFormat, what, key, i, err)
			}
			scores = append(scores, math.Float64frombits(binary.LittleEndian.Uint64(f64[:])))
		}
		if err := set(key, scores); err != nil {
			return fmt.Errorf("%w: %v", ErrBadFormat, err)
		}
	}
	return nil
}
