package index

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"unsafe"
)

// RIDX7: the index image — the only persisted form of an Index. A v7
// file stores every section in its exact in-memory wire shape at
// 8-byte-aligned offsets so OpenMapped can mmap the file and serve it in
// place (and ReadSegmented can parse the same bytes off a heap slab):
// block headers, numeric tables and max-score tables are reinterpreted
// (not parsed), the delta-varint posting region is iterated lazily
// exactly like the heap layout, and the only per-open heap cost is one
// copy of the two string blobs (document IDs and the term dictionary)
// plus O(terms + blocks) validation — OpenMapped reads no posting byte
// at open (ReadSegmented validates a slab's once, see codec.go).
//
// File layout (all integers little-endian):
//
//	0    magic "RIDX7\n" + 2 zero bytes
//	8    eleven u64 header fields:
//	         headerVersion (1), flags (7: bit 0 payload sections, bit 1
//	         forward-index sections, bit 2 their arena in term order),
//	         blockCap, numDocs, numTerms, nBlocks, totalTokens,
//	         numShards, numMaxTables, numBlockTables, fileSize
//	96   u64 section count (16), then 16 × {offset u64, length u64}
//	360  the sections, each at an 8-byte-aligned offset (the posting
//	     block region at a 4096-byte page-aligned offset), padded with
//	     zeros in between:
//
//	  docLens    numDocs × i32            document token counts
//	  docOffs    (numDocs+1) × u64        docID blob offsets
//	  docBlob    bytes                    concatenated external doc IDs
//	  termOffs   (numTerms+1) × u64       dictionary blob offsets
//	  termBlob   bytes                    concatenated terms, sorted
//	  cf         numTerms × i64           collection frequencies
//	  termRecs   numTerms × 32 B          {dataOff u64, dataLen u64,
//	                                       blk0 u32, nBlk u32, df u32, pad}
//	  blockHdrs  nBlocks × 12 B           {maxDoc i32, off u32, n i32},
//	                                      off relative to the term's data
//	  blockData  bytes (page-aligned)     delta-varint posting blocks
//	                                      (block.go), verbatim
//	  shards     numShards × i64          shard document counts
//	  maxTables  packed                   per table: keyLen u64, key,
//	                                      zero-pad to 8, numTerms × f64
//	  blkTables  packed                   same shape, nBlocks × f64
//	  payOffs    (numDocs+1) × u64        document payload offsets
//	  payBlob    bytes                    concatenated document payloads
//	  fwdOffs    (numDocs+1) × u64        forward-index offsets
//	  fwdBlob    bytes                    forward-index arena (forward.go)
//
// Every image has all 16 sections and flags 7: the engine cuts snippets
// and surrogate vectors from the forward index and compacts from the
// payloads, so an image without either serves nothing. Any other flags
// are refused at open, naming what the image lacks; bit 1 without bit 2
// is the text-order arena of earlier builds (ErrTextOrderForward), to be
// rewritten with buildindex.
//
// The dictionary has no hash map in this layout: terms is left nil and
// lookups binary-search the sorted termList (the Build invariant,
// validated at open).
//
// Open-time validation is structural only — section bounds, alignment,
// monotone offset arrays, per-term block accounting (contiguous blk0,
// counts summing to df, strictly increasing in-range maxDocs, plausible
// byte spans) and table keys — never the posting bytes themselves, nor
// the payload or forward-index arenas (Forward.Doc decodes defensively).
// Posting blocks are therefore decoded DEFENSIVELY at query time
// (decodeBlockSafe): a hostile or corrupt block ends its iterator early
// instead of panicking. A truncated file fails the fileSize/section
// bounds checks at open, so no lazily-touched page can lie beyond EOF.

// MagicMapped is the RIDX7 file magic — the mapped layout OpenMapped
// serves in place. Callers (engine.OpenIndexFile, cmd tooling) sniff it
// to pick the mapped open path.
const MagicMapped = magicV7

const (
	magicV7         = "RIDX7\n"
	v7HeaderVersion = 1
	v7FlagPayload   = 1 << 0
	v7FlagForward   = 1 << 1
	v7FlagTermOrder = 1 << 2
	v7Flags         = v7FlagPayload | v7FlagForward | v7FlagTermOrder
	v7PageAlign     = 4096
	v7TermRecBytes  = 32
	v7NumSections   = 16
	// v7HeaderSize: 8 magic+pad, 11 u64 fields, section count and table.
	v7HeaderSize = 8 + 11*8 + 8 + v7NumSections*16
)

// Section indices into the v7 section table.
const (
	secDocLens = iota
	secDocOffs
	secDocBlob
	secTermOffs
	secTermBlob
	secCF
	secTermRecs
	secBlockHdrs
	secBlockData
	secShards
	secMaxTables
	secBlockTables
	secPayOffs
	secPayBlob
	secFwdOffs
	secFwdBlob
)

func roundUp(n, align int64) int64 { return (n + align - 1) / align * align }

// WriteMapped serializes the segmented index as a mappable RIDX7 file.
// payload supplies each document's body for the payload sections (the
// engine persists document bodies this way so a mapped index can
// compact); it must not be nil.
func (s *Segmented) WriteMapped(w io.Writer, payload func(doc int32) string) (int64, error) {
	return s.writeMapped(w, payload, false)
}

// WriteMappedFramed is WriteMapped preceded by the image's byte length as
// an unsigned varint — the framing engine epoch files embed images with.
// The length is known from the section layout before any byte is
// written, so the image streams out unbuffered.
func (s *Segmented) WriteMappedFramed(w io.Writer, payload func(doc int32) string) (int64, error) {
	return s.writeMapped(w, payload, true)
}

func (s *Segmented) writeMapped(w io.Writer, payload func(doc int32) string, framed bool) (n int64, err error) {
	if payload == nil {
		return 0, errors.New("index: an RIDX7 image needs a payload func")
	}
	x := s.idx
	numDocs := int64(x.NumDocs())
	numTerms := int64(x.NumTerms())

	// Gather blob sizes.
	blobLen := func(ss []string) (n int64) {
		for _, s := range ss {
			n += int64(len(s))
		}
		return n
	}
	var blockDataLen int64
	for i := range x.plists {
		blockDataLen += int64(len(x.plists[i].data))
	}
	payloads := make([]string, numDocs)
	for d := range payloads {
		payloads[d] = payload(int32(d))
	}
	maxKeys := x.MaxScoreKeys()
	blkKeys := x.BlockMaxKeys()
	tableRegion := func(keys []string, entries int64) int64 {
		var n int64
		for _, k := range keys {
			n += 8 + roundUp(int64(len(k)), 8) + entries*8
		}
		return n
	}

	// Place the sections.
	type section struct{ off, len int64 }
	var secs [v7NumSections]section
	off := int64(v7HeaderSize)
	place := func(i int, n, align int64) {
		off = roundUp(off, align)
		secs[i] = section{off: off, len: n}
		off += n
	}
	place(secDocLens, 4*numDocs, 8)
	place(secDocOffs, 8*(numDocs+1), 8)
	place(secDocBlob, blobLen(x.docIDs), 8)
	place(secTermOffs, 8*(numTerms+1), 8)
	place(secTermBlob, blobLen(x.termList), 8)
	place(secCF, 8*numTerms, 8)
	place(secTermRecs, v7TermRecBytes*numTerms, 8)
	place(secBlockHdrs, blockHeaderBytes*int64(x.nBlocks), 8)
	place(secBlockData, blockDataLen, v7PageAlign)
	place(secShards, 8*int64(s.NumShards()), 8)
	place(secMaxTables, tableRegion(maxKeys, numTerms), 8)
	place(secBlockTables, tableRegion(blkKeys, int64(x.nBlocks)), 8)
	place(secPayOffs, 8*(numDocs+1), 8)
	place(secPayBlob, blobLen(payloads), 8)
	place(secFwdOffs, 8*(numDocs+1), 8)
	place(secFwdBlob, int64(len(x.fwd.blob)), 8)
	fileSize := off

	bw := bufio.NewWriterSize(w, 1<<16)
	if framed {
		k, err := bw.Write(binary.AppendUvarint(nil, uint64(fileSize)))
		if err != nil {
			return int64(k), err
		}
		defer func() { n += int64(k) }()
	}
	written := int64(0)
	var scratch [8]byte
	wr := func(p []byte) error {
		n, err := bw.Write(p)
		written += int64(n)
		return err
	}
	wu64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(scratch[:], v)
		return wr(scratch[:8])
	}
	wu32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		return wr(scratch[:4])
	}
	var zeros [v7PageAlign]byte
	padTo := func(target int64) error {
		for written < target {
			n := target - written
			if n > int64(len(zeros)) {
				n = int64(len(zeros))
			}
			if err := wr(zeros[:n]); err != nil {
				return err
			}
		}
		return nil
	}

	// Header.
	if err := wr([]byte(magicV7 + "\x00\x00")); err != nil {
		return written, err
	}
	for _, v := range []uint64{
		v7HeaderVersion, v7Flags, uint64(x.blockCap), uint64(numDocs),
		uint64(numTerms), uint64(x.nBlocks), uint64(x.total),
		uint64(s.NumShards()), uint64(len(maxKeys)), uint64(len(blkKeys)),
		uint64(fileSize),
	} {
		if err := wu64(v); err != nil {
			return written, err
		}
	}
	if err := wu64(v7NumSections); err != nil {
		return written, err
	}
	for i := range secs {
		if err := wu64(uint64(secs[i].off)); err != nil {
			return written, err
		}
		if err := wu64(uint64(secs[i].len)); err != nil {
			return written, err
		}
	}

	begin := func(i int) error { return padTo(secs[i].off) }
	// writeStrings writes ss as an offsets section (len(ss)+1 running
	// byte offsets) and a blob section (their concatenation).
	writeStrings := func(offsSec, blobSec int, ss []string) error {
		if err := begin(offsSec); err != nil {
			return err
		}
		at := uint64(0)
		for _, s := range ss {
			if err := wu64(at); err != nil {
				return err
			}
			at += uint64(len(s))
		}
		if err := wu64(at); err != nil {
			return err
		}
		if err := begin(blobSec); err != nil {
			return err
		}
		for _, s := range ss {
			if err := wr([]byte(s)); err != nil {
				return err
			}
		}
		return nil
	}

	// docLens / docOffs / docBlob.
	if err := begin(secDocLens); err != nil {
		return written, err
	}
	for _, l := range x.docLens {
		if err := wu32(uint32(l)); err != nil {
			return written, err
		}
	}
	if err := writeStrings(secDocOffs, secDocBlob, x.docIDs); err != nil {
		return written, err
	}

	// termOffs / termBlob.
	if err := writeStrings(secTermOffs, secTermBlob, x.termList); err != nil {
		return written, err
	}

	// cf.
	if err := begin(secCF); err != nil {
		return written, err
	}
	for _, v := range x.cf {
		if err := wu64(uint64(v)); err != nil {
			return written, err
		}
	}

	// termRecs.
	if err := begin(secTermRecs); err != nil {
		return written, err
	}
	dataAt := uint64(0)
	for i := range x.plists {
		pl := &x.plists[i]
		if err := wu64(dataAt); err != nil {
			return written, err
		}
		if err := wu64(uint64(len(pl.data))); err != nil {
			return written, err
		}
		for _, v := range []uint32{uint32(pl.blk0), uint32(len(pl.blocks)), uint32(pl.n), 0} {
			if err := wu32(v); err != nil {
				return written, err
			}
		}
		dataAt += uint64(len(pl.data))
	}

	// blockHdrs.
	if err := begin(secBlockHdrs); err != nil {
		return written, err
	}
	for i := range x.plists {
		for _, h := range x.plists[i].blocks {
			if err := wu32(uint32(h.maxDoc)); err != nil {
				return written, err
			}
			if err := wu32(h.off); err != nil {
				return written, err
			}
			if err := wu32(uint32(h.n)); err != nil {
				return written, err
			}
		}
	}

	// blockData (page-aligned).
	if err := begin(secBlockData); err != nil {
		return written, err
	}
	for i := range x.plists {
		if err := wr(x.plists[i].data); err != nil {
			return written, err
		}
	}

	// shards.
	if err := begin(secShards); err != nil {
		return written, err
	}
	for i := 0; i < s.NumShards(); i++ {
		if err := wu64(uint64(s.bounds[i+1] - s.bounds[i])); err != nil {
			return written, err
		}
	}

	// Score-table regions.
	writeTables := func(i int, keys []string, tables map[string][]float64) error {
		if err := begin(i); err != nil {
			return err
		}
		for _, key := range keys {
			if err := wu64(uint64(len(key))); err != nil {
				return err
			}
			if err := wr([]byte(key)); err != nil {
				return err
			}
			if pad := roundUp(int64(len(key)), 8) - int64(len(key)); pad > 0 {
				if err := wr(zeros[:pad]); err != nil {
					return err
				}
			}
			for _, v := range tables[key] {
				if err := wu64(math.Float64bits(v)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := writeTables(secMaxTables, maxKeys, x.maxScores); err != nil {
		return written, err
	}
	if err := writeTables(secBlockTables, blkKeys, x.blockMax); err != nil {
		return written, err
	}

	// Payload sections.
	if err := writeStrings(secPayOffs, secPayBlob, payloads); err != nil {
		return written, err
	}

	// Forward-index sections.
	if err := begin(secFwdOffs); err != nil {
		return written, err
	}
	for _, o := range x.fwd.offs {
		if err := wu64(o); err != nil {
			return written, err
		}
	}
	if err := begin(secFwdBlob); err != nil {
		return written, err
	}
	if err := wr(x.fwd.blob); err != nil {
		return written, err
	}
	if err := padTo(fileSize); err != nil {
		return written, err
	}
	return written, bw.Flush()
}

// OpenMapped maps the RIDX7 file at path and serves it in place: the
// returned index's posting iterators, block-max tables and dictionary
// read directly off the mapping. Open cost is O(terms + blocks)
// validation plus one heap copy of the two string blobs — the posting
// region is never touched. The caller owns one reference; Close drops
// it, and the region stays mapped until the last iterator or Retain
// holder drops too. A truncated or hostile file errors here — the
// section bounds are checked against the real file size so no lazy read
// can fault past EOF.
func OpenMapped(path string) (*Segmented, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size < v7HeaderSize {
		return nil, fmt.Errorf("%w: %d bytes is smaller than a v7 header", ErrBadFormat, size)
	}
	const maxInt = int64(^uint(0) >> 1)
	if size > maxInt {
		return nil, fmt.Errorf("%w: file too large to map (%d bytes)", ErrBadFormat, size)
	}
	data, osMapped, err := mmapFile(f, int(size))
	if err != nil {
		return nil, fmt.Errorf("index: mmap %s: %w", path, err)
	}
	m := &Mapping{data: data, os: osMapped}
	m.refs.Store(1)
	activeMappings.Add(1)
	x, sizes, err := parseV7(data, m)
	if err != nil {
		m.release()
		return nil, err
	}
	seg, ok := segmentedFromSizes(x, sizes)
	if !ok {
		m.release()
		return nil, fmt.Errorf("%w: shard manifest %v does not cover %d docs", ErrBadFormat, sizes, x.NumDocs())
	}
	// Posting blocks are reached by skip-heavy traversal; tell the
	// kernel not to read ahead. Advisory — errors are irrelevant.
	x.Advise(AdviseRandom)
	return seg, nil
}

// parseV7 builds an Index over a complete v7 byte region. m is the
// refcounted mapping backing data, or nil when data is an owned heap
// slab (ReadSegmented) — the index layout is identical either way,
// including defensive posting decode, since the posting bytes are not
// validated here. Validation is structural: every section
// bound, alignment and accounting invariant the in-place readers trust
// is checked before the index is returned, and a failure never panics.
func parseV7(data []byte, m *Mapping) (*Index, []int64, error) {
	fail := func(format string, args ...any) (*Index, []int64, error) {
		return nil, nil, fmt.Errorf("%w: v7: %s", ErrBadFormat, fmt.Sprintf(format, args...))
	}
	if len(data) < v7HeaderSize {
		return fail("%d bytes is smaller than the header", len(data))
	}
	if string(data[:len(magicV7)]) != magicV7 || data[6] != 0 || data[7] != 0 {
		return fail("bad magic")
	}
	u64at := func(off int) uint64 { return binary.LittleEndian.Uint64(data[off:]) }
	var h [11]uint64
	for i := range h {
		h[i] = u64at(8 + 8*i)
	}
	version, flags := h[0], h[1]
	blockCap, numDocs, numTerms, nBlocks := h[2], h[3], h[4], h[5]
	totalTokens, numShards, numMaxTables, numBlockTables := h[6], h[7], h[8], h[9]
	fileSize := h[10]
	if version != v7HeaderVersion {
		return fail("unknown header version %d", version)
	}
	if flags&^uint64(v7Flags) != 0 {
		return fail("unknown flags %#x", flags)
	}
	if flags&(v7FlagForward|v7FlagTermOrder) == v7FlagForward {
		return nil, nil, ErrTextOrderForward
	}
	if flags != v7Flags {
		missing := "forward-index and payload sections"
		switch {
		case flags&v7FlagPayload != 0:
			missing = "forward-index section"
		case flags&v7FlagForward != 0:
			missing = "payload section"
		}
		return nil, nil, fmt.Errorf("%w: image lacks its %s", ErrBadFormat, missing)
	}
	if blockCap == 0 || blockCap > MaxBlockSize {
		return fail("blockCap %d out of range", blockCap)
	}
	if numDocs > 1<<31 || numTerms > 1<<31 || nBlocks > 1<<40 {
		return fail("implausible counts (docs %d, terms %d, blocks %d)", numDocs, numTerms, nBlocks)
	}
	if totalTokens > 1<<62 {
		return fail("implausible totalTokens %d", totalTokens)
	}
	if numShards == 0 || numShards > numDocs+1 {
		return fail("shard count %d out of range", numShards)
	}
	if numMaxTables > 1<<12 || numBlockTables > 1<<12 {
		return fail("implausible table counts (%d, %d)", numMaxTables, numBlockTables)
	}
	if fileSize < v7HeaderSize || fileSize > uint64(len(data)) {
		return fail("recorded fileSize %d vs %d real bytes", fileSize, len(data))
	}
	if n := u64at(96); n != v7NumSections {
		return fail("section count %d, want %d", n, v7NumSections)
	}
	type section struct{ off, len uint64 }
	var secs [v7NumSections]section
	for i := range secs {
		secs[i] = section{off: u64at(104 + 16*i), len: u64at(104 + 16*i + 8)}
		s := secs[i]
		if s.len > fileSize || s.off < v7HeaderSize || s.off > fileSize-s.len {
			return fail("section %d [%d,+%d) outside file of %d bytes", i, s.off, s.len, fileSize)
		}
		if s.off%8 != 0 {
			return fail("section %d offset %d not 8-aligned", i, s.off)
		}
	}
	if secs[secBlockData].len > 0 && secs[secBlockData].off%v7PageAlign != 0 {
		return fail("block data offset %d not page-aligned", secs[secBlockData].off)
	}
	want := func(i int, length uint64, what string) error {
		if secs[i].len != length {
			return fmt.Errorf("%w: v7: %s section is %d bytes, want %d", ErrBadFormat, what, secs[i].len, length)
		}
		return nil
	}
	for _, c := range []struct {
		i    int
		len  uint64
		what string
	}{
		{secDocLens, 4 * numDocs, "docLens"},
		{secDocOffs, 8 * (numDocs + 1), "docOffs"},
		{secTermOffs, 8 * (numTerms + 1), "termOffs"},
		{secCF, 8 * numTerms, "cf"},
		{secTermRecs, v7TermRecBytes * numTerms, "termRecs"},
		{secBlockHdrs, blockHeaderBytes * nBlocks, "blockHdrs"},
		{secShards, 8 * numShards, "shards"},
		{secPayOffs, 8 * (numDocs + 1), "payOffs"},
		{secFwdOffs, 8 * (numDocs + 1), "fwdOffs"},
	} {
		if err := want(c.i, c.len, c.what); err != nil {
			return nil, nil, err
		}
	}
	bytesOf := func(i int) []byte { return data[secs[i].off : secs[i].off+secs[i].len] }

	// Strings: one heap copy per blob, sliced into per-entry string
	// headers — document IDs and terms must not dangle off the mapping
	// (they escape into results, caches and the similarity lexicon).
	splitBlob := func(offsSec, blobSec int, n uint64, what string) ([]string, error) {
		offs := viewU64(bytesOf(offsSec))
		blob := bytesOf(blobSec)
		if offs[0] != 0 || offs[n] != uint64(len(blob)) {
			return nil, fmt.Errorf("%w: v7: %s offsets do not cover the blob", ErrBadFormat, what)
		}
		heap := string(blob)
		out := make([]string, n)
		for i := uint64(0); i < n; i++ {
			if offs[i+1] < offs[i] || offs[i+1] > uint64(len(heap)) {
				return nil, fmt.Errorf("%w: v7: %s offsets not monotone at %d", ErrBadFormat, what, i)
			}
			out[i] = heap[offs[i]:offs[i+1]]
		}
		return out, nil
	}
	docIDs, err := splitBlob(secDocOffs, secDocBlob, numDocs, "docID")
	if err != nil {
		return nil, nil, err
	}
	termList, err := splitBlob(secTermOffs, secTermBlob, numTerms, "term")
	if err != nil {
		return nil, nil, err
	}
	for i := 1; i < len(termList); i++ {
		if termList[i] <= termList[i-1] {
			return fail("dictionary not strictly sorted at term %d", i)
		}
	}
	docLens := viewI32(bytesOf(secDocLens))
	for i, l := range docLens {
		if l < 0 {
			return fail("negative docLen at doc %d", i)
		}
	}

	// Per-term posting records over the shared block header and data
	// sections. blk0 must tile the header section exactly and every
	// header must uphold what the lazy decoder trusts about structure
	// (never about the posting bytes — those stay defensive).
	hdrs := viewHeaders(bytesOf(secBlockHdrs))
	blockData := bytesOf(secBlockData)
	recs := bytesOf(secTermRecs)
	plists := make([]postingList, numTerms)
	cf := viewI64(bytesOf(secCF))
	runBlk := uint64(0)
	for t := uint64(0); t < numTerms; t++ {
		rec := recs[t*v7TermRecBytes:]
		dataOff := binary.LittleEndian.Uint64(rec)
		dataLen := binary.LittleEndian.Uint64(rec[8:])
		blk0 := binary.LittleEndian.Uint32(rec[16:])
		nBlk := binary.LittleEndian.Uint32(rec[20:])
		df := binary.LittleEndian.Uint32(rec[24:])
		if df == 0 {
			if nBlk != 0 || dataLen != 0 {
				return fail("term %d: empty df with %d blocks, %d bytes", t, nBlk, dataLen)
			}
			continue
		}
		if uint64(df) > numDocs || uint64(nBlk) > uint64(df) || nBlk == 0 {
			return fail("term %d: df %d / %d blocks out of range", t, df, nBlk)
		}
		if uint64(blk0) != runBlk || runBlk+uint64(nBlk) > nBlocks {
			return fail("term %d: block numbering broken (blk0 %d, run %d)", t, blk0, runBlk)
		}
		if dataLen > math.MaxUint32 || dataOff > uint64(len(blockData)) || dataLen > uint64(len(blockData))-dataOff {
			return fail("term %d: data [%d,+%d) outside block region of %d bytes", t, dataOff, dataLen, len(blockData))
		}
		hs := hdrs[runBlk : runBlk+uint64(nBlk)]
		var seen uint64
		prevMax := int32(-1)
		for i := range hs {
			bh := hs[i]
			if bh.n <= 0 || uint64(bh.n) > blockCap {
				return fail("term %d block %d: count %d vs blockCap %d", t, i, bh.n, blockCap)
			}
			start := uint64(bh.off)
			end := dataLen
			if i+1 < len(hs) {
				end = uint64(hs[i+1].off)
			}
			if i == 0 && start != 0 {
				return fail("term %d: first block at offset %d", t, start)
			}
			if end <= start || end > dataLen {
				return fail("term %d block %d: byte range [%d,%d) invalid", t, i, start, end)
			}
			if span := end - start; span < 2*uint64(bh.n) || span > 10*uint64(bh.n) {
				return fail("term %d block %d: %d bytes implausible for %d postings", t, i, span, bh.n)
			}
			if bh.maxDoc <= prevMax || uint64(bh.maxDoc) >= numDocs {
				return fail("term %d block %d: maxDoc %d out of order or range", t, i, bh.maxDoc)
			}
			prevMax = bh.maxDoc
			seen += uint64(bh.n)
		}
		if seen != uint64(df) {
			return fail("term %d: blocks carry %d postings, df says %d", t, seen, df)
		}
		plists[t] = postingList{
			n:      int32(df),
			data:   blockData[dataOff : dataOff+dataLen],
			blocks: hs,
			blk0:   int32(blk0),
		}
		runBlk += uint64(nBlk)
	}
	if runBlk != nBlocks {
		return fail("terms use %d blocks, header says %d", runBlk, nBlocks)
	}

	x := &Index{
		docIDs:     docIDs,
		docLens:    docLens,
		terms:      nil, // mapped dictionaries binary-search termList
		termList:   termList,
		plists:     plists,
		blockCap:   int(blockCap),
		nBlocks:    int(nBlocks),
		cf:         cf,
		total:      int64(totalTokens),
		mapping:    m,
		unverified: true,
	}

	// Score tables, served in place (SetMaxScores/SetBlockMaxScores
	// validate the finite-nonnegative contract over the mapped values).
	parseTables := func(i int, count uint64, entries uint64, what string, set func(string, []float64) error) error {
		b := bytesOf(i)
		at := uint64(0)
		prevKey := ""
		for t := uint64(0); t < count; t++ {
			if uint64(len(b))-at < 8 {
				return fmt.Errorf("%w: v7: %s region truncated at table %d", ErrBadFormat, what, t)
			}
			keyLen := binary.LittleEndian.Uint64(b[at:])
			at += 8
			if keyLen == 0 || keyLen > 1<<10 {
				return fmt.Errorf("%w: v7: %s key length %d", ErrBadFormat, what, keyLen)
			}
			padded := uint64(roundUp(int64(keyLen), 8))
			if uint64(len(b))-at < padded || uint64(len(b))-at-padded < 8*entries {
				return fmt.Errorf("%w: v7: %s table %d truncated", ErrBadFormat, what, t)
			}
			key := string(b[at : at+keyLen])
			at += padded
			if t > 0 && key <= prevKey {
				return fmt.Errorf("%w: v7: %s keys not strictly sorted at %q", ErrBadFormat, what, key)
			}
			prevKey = key
			vals := viewF64(b[at : at+8*entries])
			at += 8 * entries
			if err := set(key, vals); err != nil {
				return fmt.Errorf("%w: %v", ErrBadFormat, err)
			}
		}
		if at != uint64(len(b)) {
			return fmt.Errorf("%w: v7: %d trailing bytes in %s region", ErrBadFormat, uint64(len(b))-at, what)
		}
		return nil
	}
	if err := parseTables(secMaxTables, numMaxTables, numTerms, "max-score", x.SetMaxScores); err != nil {
		return nil, nil, err
	}
	if err := parseTables(secBlockTables, numBlockTables, nBlocks, "block-max", x.SetBlockMaxScores); err != nil {
		return nil, nil, err
	}

	// Payload sections (document bodies, served in place).
	payOffs := viewU64(bytesOf(secPayOffs))
	payBlob := bytesOf(secPayBlob)
	if payOffs[0] != 0 || payOffs[numDocs] != uint64(len(payBlob)) {
		return fail("payload offsets do not cover the blob")
	}
	for i := uint64(0); i < numDocs; i++ {
		if payOffs[i+1] < payOffs[i] {
			return fail("payload offsets not monotone at %d", i)
		}
	}
	x.payOffs = payOffs
	x.payBlob = payBlob

	// Forward-index sections (served in place): the offsets are validated,
	// the arena is left untouched for Forward.Doc to decode.
	fwd, err := newForward(viewU64(bytesOf(secFwdOffs)), bytesOf(secFwdBlob), int(numDocs), int(numTerms))
	if err != nil {
		return fail("%v", err)
	}
	x.fwd = fwd

	sizes := make([]int64, numShards)
	shardVals := viewI64(bytesOf(secShards))
	copy(sizes, shardVals)
	return x, sizes, nil
}

// viewU64 reinterprets a little-endian byte section as []uint64 — zero
// copy when the host matches the wire order and the base is aligned,
// copy-decode otherwise (big-endian hosts, odd slabs).
func viewU64(b []byte) []uint64 {
	n := len(b) / 8
	if n == 0 {
		return make([]uint64, 0, 1)
	}
	if hostLittleEndian && aligned8(b) {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return out
}

func viewI64(b []byte) []int64 {
	n := len(b) / 8
	if n == 0 {
		return nil
	}
	if hostLittleEndian && aligned8(b) {
		return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

func viewF64(b []byte) []float64 {
	n := len(b) / 8
	if n == 0 {
		return nil
	}
	if hostLittleEndian && aligned8(b) {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

func viewI32(b []byte) []int32 {
	n := len(b) / 4
	if n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// viewHeaders reinterprets the header section as []blockHeader when the
// in-memory struct layout matches the 12-byte wire record, copy-decoding
// otherwise.
func viewHeaders(b []byte) []blockHeader {
	n := len(b) / blockHeaderBytes
	if n == 0 {
		return nil
	}
	if hostLittleEndian && headerLayoutOK && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*blockHeader)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]blockHeader, n)
	for i := range out {
		out[i] = blockHeader{
			maxDoc: int32(binary.LittleEndian.Uint32(b[i*blockHeaderBytes:])),
			off:    binary.LittleEndian.Uint32(b[i*blockHeaderBytes+4:]),
			n:      int32(binary.LittleEndian.Uint32(b[i*blockHeaderBytes+8:])),
		}
	}
	return out
}

// termID resolves a term to its internal number: a hash probe on owned
// indexes, a binary search over the sorted dictionary on mapped ones
// (which carry no map — the dictionary IS the sorted blob).
func (x *Index) termID(term string) (int32, bool) {
	if x.terms != nil {
		id, ok := x.terms[term]
		return id, ok
	}
	i := sort.SearchStrings(x.termList, term)
	if i < len(x.termList) && x.termList[i] == term {
		return int32(i), true
	}
	return 0, false
}

// Payload returns the stored payload of a document. The string is a
// zero-copy view into the mapped region: it is valid only while the
// mapping is retained (for engine states, until the state is unpinned).
// Callers that let the bytes outlive their snapshot must strings.Clone.
func (x *Index) Payload(doc int32) (string, bool) {
	if x.payOffs == nil || doc < 0 || int(doc) >= len(x.payOffs)-1 {
		return "", false
	}
	lo, hi := x.payOffs[doc], x.payOffs[doc+1]
	if lo == hi {
		return "", true
	}
	b := x.payBlob[lo:hi]
	return unsafe.String(&b[0], len(b)), true
}
