package index

import (
	"errors"
	"fmt"
	"io"
	"unsafe"
)

// The owned-slab entry point of the RIDX7 image (codec_v7.go). RIDX7 is
// the only index image: OpenMapped serves a file of it in place, and
// Read/ReadSegmented read one from any io.Reader onto a heap slab and
// parse it there — same in-place views, no refcounted mapping,
// GC-managed lifetime. The varint streams that came before it — RIDX1–4
// (flat postings), RIDX5 (blocked postings) and RIDX6 (a manifest of
// RIDX5 streams) — are ErrBadFormat like any other foreign magic.

// ErrBadFormat reports a corrupt or foreign index image.
var ErrBadFormat = errors.New("index: bad index format")

// ErrTextOrderForward is the ErrBadFormat of an RIDX7 image whose forward
// index is in the text order earlier builds wrote (flag bit 1 without bit
// 2). Unlike a torn or corrupt image it is well-formed data this reader
// refuses, so a caller that falls back past bad images must stop here.
var ErrTextOrderForward = fmt.Errorf("%w: v7: forward index in text order, a layout this reader no longer decodes: rewrite the image with buildindex", ErrBadFormat)

// Read deserializes an RIDX7 image (see ReadSegmented), dropping its
// shard partition.
func Read(r io.Reader) (*Index, error) {
	seg, err := ReadSegmented(r)
	if err != nil {
		return nil, err
	}
	return seg.Index(), nil
}

// ReadSegmented reads an RIDX7 image — every byte r yields up to EOF —
// onto an 8-byte-aligned heap slab and parses it with the same validator
// OpenMapped uses. The slab grows as bytes arrive, so a stream costs
// memory in proportion to the bytes it actually carries, whatever its
// header claims. Any other magic is ErrBadFormat before the rest is read.
// Unlike a mapping, whose pages are only touched as queries reach them,
// the slab is in memory already: its posting bytes are validated once
// here, and then served by the branch-lean decoder a built index uses.
func ReadSegmented(r io.Reader) (*Segmented, error) {
	buf := alignedBytes(v7PageAlign)
	n, err := io.ReadFull(r, buf[:len(magicV7)])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if string(buf[:n]) != magicV7 {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, buf[:n])
	}
	for {
		if n == len(buf) {
			grown := alignedBytes(2 * len(buf))
			copy(grown, buf)
			buf = grown
		}
		m, err := r.Read(buf[n:])
		n += m
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
		}
	}
	x, sizes, err := parseV7(buf[:n], nil)
	if err != nil {
		return nil, err
	}
	if err := x.validatePostings(); err != nil {
		return nil, err
	}
	x.unverified = false
	seg, ok := segmentedFromSizes(x, sizes)
	if !ok {
		return nil, fmt.Errorf("%w: shard manifest %v does not cover %d docs", ErrBadFormat, sizes, x.NumDocs())
	}
	return seg, nil
}

// validatePostings decodes every posting block with the defensive
// decoder, proving the invariants decodeBlock trusts: terminating
// varints inside the block, strictly ascending documents ending at the
// header's maxDoc (which parseV7 bounded by numDocs), in-range TFs.
func (x *Index) validatePostings() error {
	scratch := blockScratch.Get().(*[]Posting)
	defer blockScratch.Put(scratch)
	for id := range x.plists {
		pl := &x.plists[id]
		base := int32(-1)
		for bi, h := range pl.blocks {
			end := uint64(len(pl.data))
			if bi+1 < len(pl.blocks) {
				end = uint64(pl.blocks[bi+1].off)
			}
			dec, ok := decodeBlockSafe((*scratch)[:0], pl.data, h, base, end)
			*scratch = dec[:0]
			if !ok {
				return fmt.Errorf("%w: v7: term %d block %d: corrupt postings", ErrBadFormat, id, bi)
			}
			base = h.maxDoc
		}
	}
	return nil
}

// alignedBytes allocates n bytes at an 8-byte-aligned address, so the
// image's numeric sections can be viewed in place (viewU64 and friends).
func alignedBytes(n int) []byte {
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), n)
}
