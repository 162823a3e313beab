package index

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Forward is the forward index of one Index: per document, every term
// occurrence (a term number in this index's dictionary) of every
// whitespace field of the document's text, with the field it lies in. It
// is what lets the engine pick a query-biased snippet window and build the
// window's term vector by comparing and counting int32s instead of
// re-analyzing the body on every request — the stored-surrogate half of
// the paper's §4.1 budget.
//
// Occurrences are stored in (term, field) order, not text order, so a
// window's bag of terms is a filter of the entry — ascending already, which
// is the order the surrogate vector is counted in — and never a sort.
//
// Layout: one byte arena addressed by document ordinal through an offset
// array (offs[d] .. offs[d+1]). A document is
//
//	uvarint  number of fields F
//	uvarint  number of occurrences N
//	N occurrences, each
//	    uvarint  field<<1 | same
//	    uvarint  term − previous distinct term   (only when same = 0)
//
// where same = 1 says the occurrence has the previous one's term, and the
// first term's delta is counted from −1. An occurrence costs one byte for
// a field below 64 and its term one to three more the first time, so a
// field without a term (a stopword, punctuation) costs nothing. Offsets
// are validated when the arena is installed (monotone, covering the blob
// exactly); the arena itself is not — a mapped image's bytes are never
// read at open — so Doc decodes defensively and reports a malformed
// document instead of trusting it.
type Forward struct {
	offs     []uint64 // numDocs+1 arena offsets
	blob     []byte
	numTerms int32
}

// Bytes returns the storage footprint: arena plus offset array.
func (f *Forward) Bytes() int64 { return int64(len(f.blob)) + 8*int64(len(f.offs)) }

// Doc decodes document d, appending its occurrences' term numbers to terms
// — ascending — and each occurrence's field to fields (ascending within a
// term), and returns the document's field count F. ok is false, with both
// slices returned as they came in, when the document is out of range or
// its bytes are malformed: a truncated or oversized varint, F beyond an
// int32, more occurrences claimed than bytes remain, a first occurrence
// marked same, a zero delta on a new term, a term outside the dictionary,
// a field ≥ F or below its term's previous one, or bytes left over. F is
// not otherwise bounded: a field without occurrences costs no byte.
// Nothing is allocated beyond what the appends need, which the document's
// own byte length bounds.
func (f *Forward) Doc(d int32, terms, fields []int32) (t, fl []int32, nFields int, ok bool) {
	if d < 0 || int(d) >= len(f.offs)-1 {
		return terms, fields, 0, false
	}
	b := f.blob[f.offs[d]:f.offs[d+1]]
	nf, n := binary.Uvarint(b)
	if n <= 0 || nf > math.MaxInt32 {
		return terms, fields, 0, false
	}
	b = b[n:]
	nOcc, n := binary.Uvarint(b)
	if n <= 0 {
		return terms, fields, 0, false
	}
	b = b[n:]
	if nOcc > uint64(len(b)) { // every occurrence takes at least a byte
		return terms, fields, 0, false
	}
	t, fl = terms, fields
	term, field := int64(-1), uint64(0)
	for i := uint64(0); i < nOcc; i++ {
		// Most varints here are one byte: a field below 64, a small delta.
		// Those are read in place; binary.Uvarint reads, or refuses, the
		// rest.
		var v uint64
		if len(b) > 0 && b[0] < 0x80 {
			v, b = uint64(b[0]), b[1:]
		} else {
			var n int
			if v, n = binary.Uvarint(b); n <= 0 {
				return terms, fields, 0, false
			}
			b = b[n:]
		}
		next := v >> 1
		if next >= nf {
			return terms, fields, 0, false
		}
		if v&1 == 1 {
			if i == 0 || next < field {
				return terms, fields, 0, false
			}
		} else {
			var delta uint64
			if len(b) > 0 && b[0] < 0x80 {
				delta, b = uint64(b[0]), b[1:]
			} else {
				var n int
				if delta, n = binary.Uvarint(b); n <= 0 {
					return terms, fields, 0, false
				}
				b = b[n:]
			}
			if delta == 0 || delta > uint64(int64(f.numTerms)-1-term) {
				return terms, fields, 0, false
			}
			term += int64(delta)
		}
		field = next
		t = append(t, int32(term))
		fl = append(fl, int32(field))
	}
	if len(b) != 0 {
		return terms, fields, 0, false
	}
	return t, fl, int(nf), true
}

// forwardWriter collects documents in text order and writes the arena
// once all of them are in.
type forwardWriter struct {
	ids     []int32 // every document's term numbers, in text order
	lens    []int32 // every document's field lengths
	nFields []int32 // per document: how many entries of lens are its
}

// endDoc closes a document whose term numbers were appended to ids since
// the last endDoc, in text order: fieldLens[i] of them lie in field i.
func (w *forwardWriter) endDoc(fieldLens []int32) {
	w.lens = append(w.lens, fieldLens...)
	w.nFields = append(w.nFields, int32(len(fieldLens)))
}

// forward writes the arena under a dictionary of numTerms terms; perm,
// when not nil, maps the numbers in ids to the dictionary's. Documents
// are put in (term, field) order a batch at a time, by an occSorter.
func (w *forwardWriter) forward(numTerms int, perm []int32) *Forward {
	if perm != nil {
		for i, id := range w.ids {
			w.ids[i] = perm[id]
		}
	}
	offs := make([]uint64, 1, len(w.nFields)+1)
	blob := make([]byte, 0, 3*len(w.ids)+4*len(w.nFields))
	s := occSorter{termAt: make([]int32, numTerms+1)}
	batch := max(1<<16, numTerms) // occurrences, give or take a document
	ids, lens, nFields := w.ids, w.lens, w.nFields
	for len(nFields) > 0 {
		nd, nOcc, nLens := 0, 0, 0
		for ; nd < len(nFields) && (nd == 0 || nOcc < batch); nd++ {
			for _, l := range lens[nLens : nLens+int(nFields[nd])] {
				nOcc += int(l)
			}
			nLens += int(nFields[nd])
		}
		s.sort(ids[:nOcc], lens[:nLens], nFields[:nd])
		for d, nf := range nFields[:nd] {
			occ := s.byDoc[s.docAt[d]:s.docAt[d+1]]
			blob = binary.AppendUvarint(blob, uint64(nf))
			blob = binary.AppendUvarint(blob, uint64(len(occ)))
			prev := uint64(math.MaxUint64) // term −1
			for _, v := range occ {
				term, field := v>>32, v&math.MaxUint32
				if term == prev {
					blob = binary.AppendUvarint(blob, field<<1|1)
					continue
				}
				blob = binary.AppendUvarint(blob, field<<1)
				blob = binary.AppendUvarint(blob, term-prev)
				prev = term
			}
			offs = append(offs, uint64(len(blob)))
		}
		ids, lens, nFields = ids[nOcc:], lens[nLens:], nFields[nd:]
	}
	// The arena lives as long as the index: drop the spare capacity.
	return &Forward{offs: offs, blob: slices.Clone(blob), numTerms: int32(numTerms)}
}

// occSorter puts a batch of documents' occurrences in (term, field) order
// per document without sorting any document: two stable counting passes
// over the batch — by term, then by document — each reading its input in
// order. The first carries document<<32 | field into the term buckets,
// the second term<<32 | field into the document buckets. Its space is
// reused from batch to batch, so it stays the size of one batch.
type occSorter struct {
	termAt        []int32 // numTerms+1 bucket bounds
	docAt, cur    []int32
	byTerm, byDoc []uint64
}

// sort fills byDoc: document d of the batch has byDoc[docAt[d]:docAt[d+1]].
func (s *occSorter) sort(ids, lens, nFields []int32) {
	clear(s.termAt)
	for _, id := range ids {
		s.termAt[id+1]++
	}
	for t := 1; t < len(s.termAt); t++ {
		s.termAt[t] += s.termAt[t-1]
	}
	s.byTerm = slices.Grow(s.byTerm[:0], len(ids))[:len(ids)]
	s.docAt = slices.Grow(s.docAt[:0], len(nFields)+1)[:len(nFields)+1]
	next, at := s.termAt[:len(s.termAt)-1], 0
	for d, nf := range nFields {
		s.docAt[d] = int32(at)
		for f, l := range lens[:nf] {
			for _, id := range ids[at : at+int(l)] {
				s.byTerm[next[id]] = uint64(d)<<32 | uint64(f)
				next[id]++
			}
			at += int(l)
		}
		lens = lens[nf:]
	}
	s.docAt[len(nFields)] = int32(at)

	// next[t] now ends term t's bucket.
	s.byDoc = slices.Grow(s.byDoc[:0], len(ids))[:len(ids)]
	s.cur = append(s.cur[:0], s.docAt[:len(nFields)]...)
	from := int32(0)
	for t, to := range next {
		for _, v := range s.byTerm[from:to] {
			d := v >> 32
			s.byDoc[s.cur[d]] = uint64(t)<<32 | v&math.MaxUint32
			s.cur[d]++
		}
		from = to
	}
}

// newForward validates an offset array against its arena and wraps the
// pair (both may alias a mapped region). Only the offsets are read.
func newForward(offs []uint64, blob []byte, numDocs, numTerms int) (*Forward, error) {
	if len(offs) != numDocs+1 {
		return nil, fmt.Errorf("forward index has %d offsets for %d docs", len(offs), numDocs)
	}
	if offs[0] != 0 || offs[numDocs] != uint64(len(blob)) {
		return nil, fmt.Errorf("forward offsets do not cover the %d-byte arena", len(blob))
	}
	for d := 0; d < numDocs; d++ {
		if offs[d+1] < offs[d] {
			return nil, fmt.Errorf("forward offsets not monotone at doc %d", d)
		}
	}
	return &Forward{offs: offs, blob: blob, numTerms: int32(numTerms)}, nil
}

// Forward returns the index's forward index.
func (x *Index) Forward() *Forward { return x.fwd }
