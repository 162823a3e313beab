package index

import (
	"encoding/binary"
	"fmt"
)

// Forward is the forward index of one Index: per document, the analyzed
// term numbers (in this index's dictionary) of every whitespace field of
// the document's text, in text order. It is what lets the engine pick a
// query-biased snippet window and build the window's term vector by
// comparing and counting int32s instead of re-analyzing the body on every
// request — the stored-surrogate half of the paper's §4.1 budget.
//
// Layout: one byte arena addressed by document ordinal through an offset
// array (offs[d] .. offs[d+1]). A document is
//
//	uvarint  number of fields F
//	F fields, each either
//	    0x00                                 a field with no term
//	  or one uvarint per term of the field:  (term+1)<<1 | more
//	    where more = 1 says another term of the same field follows
//
// so a stopword or punctuation field costs one byte and a term of a
// dictionary below 8191 entries two. Offsets are validated when the
// arena is installed (monotone, covering the blob exactly); the arena
// itself is not — a mapped image's bytes are never read at open — so Doc
// decodes defensively and reports a malformed document instead of
// trusting it.
type Forward struct {
	offs     []uint64 // numDocs+1 arena offsets
	blob     []byte
	numTerms int32
}

// Bytes returns the storage footprint: arena plus offset array.
func (f *Forward) Bytes() int64 { return int64(len(f.blob)) + 8*int64(len(f.offs)) }

// Doc decodes document d, appending its term numbers to terms and, per
// field, the running term count to ends — field i holds
// terms[ends[i-1]:ends[i]] of what was appended. ok is false, with both
// slices returned as they came in, when the document is out of range or
// its bytes are malformed: a truncated or oversized varint, a term number
// outside the dictionary, a field count the bytes do not bear out, or
// bytes left over. Nothing is allocated beyond what the appends need,
// which the document's own byte length bounds.
func (f *Forward) Doc(d int32, terms, ends []int32) (t, e []int32, ok bool) {
	if d < 0 || int(d) >= len(f.offs)-1 {
		return terms, ends, false
	}
	b := f.blob[f.offs[d]:f.offs[d+1]]
	nFields, n := binary.Uvarint(b)
	if n <= 0 {
		return terms, ends, false
	}
	b = b[n:]
	if nFields > uint64(len(b)) { // every field takes at least a byte
		return terms, ends, false
	}
	t, e = terms, ends
	for i := uint64(0); i < nFields; i++ {
		more := true
		for first := true; more; first = false {
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return terms, ends, false
			}
			b = b[n:]
			if v == 0 {
				if !first {
					return terms, ends, false // a term promised a successor
				}
				break
			}
			id := v>>1 - 1
			if id >= uint64(f.numTerms) {
				return terms, ends, false
			}
			t = append(t, int32(id))
			more = v&1 == 1
		}
		e = append(e, int32(len(t)-len(terms)))
	}
	if len(b) != 0 {
		return terms, ends, false
	}
	return t, e, true
}

// forwardWriter accumulates the arena document by document.
type forwardWriter struct {
	offs []uint64
	blob []byte
}

func newForwardWriter(numDocs int) *forwardWriter {
	return &forwardWriter{offs: make([]uint64, 1, numDocs+1)}
}

// add encodes one document: ids are its term numbers in text order,
// fieldLens[i] how many of them field i holds (they sum to len(ids)).
func (w *forwardWriter) add(ids []int32, fieldLens []int32) {
	w.blob = binary.AppendUvarint(w.blob, uint64(len(fieldLens)))
	at := 0
	for _, n := range fieldLens {
		if n == 0 {
			w.blob = append(w.blob, 0)
			continue
		}
		for j := int32(0); j < n; j++ {
			v := (uint64(ids[at]) + 1) << 1
			if j+1 < n {
				v |= 1
			}
			w.blob = binary.AppendUvarint(w.blob, v)
			at++
		}
	}
	w.offs = append(w.offs, uint64(len(w.blob)))
}

func (w *forwardWriter) forward(numTerms int) *Forward {
	return &Forward{offs: w.offs, blob: w.blob, numTerms: int32(numTerms)}
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

// Forward returns the index's forward index, or nil when it has none (it
// was built through Builder.Add, or read from an image that predates the
// forward sections and not rebuilt).
func (x *Index) Forward() *Forward { return x.fwd }

// RebuildForward gives an index that lacks a forward index one, from the
// documents' text: analyze(d) returns document d's analyzed tokens and
// the per-field token counts (text.Analyzer.FieldTokens). This is what an
// image written before the forward sections costs at open — one analysis
// pass over the payloads, and an arena on the heap. Tokens the dictionary
// does not hold (a payload that disagrees with its index) are dropped,
// adjusting fieldLens in place; analyze may reuse both slices across calls.
// Same ownership contract as SetMaxScores: call while the index is
// privately owned.
func (x *Index) RebuildForward(analyze func(d int32) (tokens []string, fieldLens []int32)) {
	w := newForwardWriter(x.NumDocs())
	var ids []int32
	for d := int32(0); d < int32(x.NumDocs()); d++ {
		tokens, fieldLens := analyze(d)
		ids = ids[:0]
		at := 0
		for i, n := range fieldLens {
			kept := int32(0)
			for _, tok := range tokens[at : at+int(n)] {
				if id, ok := x.termID(tok); ok {
					ids = append(ids, id)
					kept++
				}
			}
			at += int(n)
			fieldLens[i] = kept
		}
		w.add(ids, fieldLens)
	}
	x.fwd = w.forward(x.NumTerms())
}
