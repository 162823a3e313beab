// Package index implements the inverted-index substrate of the search
// engine: a document-at-a-time index with term dictionary, frequency
// postings, document lengths and collection statistics — everything the
// DFR ranking models of package ranking need. It replaces the Terrier
// index of the paper's experimental setup (§5).
//
// Postings are stored block-compressed (see block.go): fixed-capacity
// blocks of delta-varint (docID, tf) pairs behind per-block max-doc
// headers, traversed through PostingIterator. An index persists as one
// RIDX7 image (codec_v7.go), served mapped in place or read onto an owned
// heap slab.
//
// The index is token-agnostic: callers analyze text (package text) before
// adding documents, so index and query processing are guaranteed to agree
// on the analysis chain.
package index

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"
)

// Posting records one (document, term frequency) pair. Doc is the internal
// document number assigned in insertion order.
type Posting struct {
	Doc int32
	TF  int32
}

// TermStats carries the per-term statistics ranking models consume.
type TermStats struct {
	ID int32 // internal term number
	DF int64 // document frequency: #docs containing the term
	CF int64 // collection frequency: total occurrences in the collection
}

// CollectionStats carries the collection-wide statistics ranking models
// consume.
type CollectionStats struct {
	NumDocs     int64
	TotalTokens int64
	AvgDocLen   float64
}

// Builder accumulates documents and produces an immutable Index.
type Builder struct {
	docIDs    []string
	docLens   []int32
	seen      map[string]bool
	terms     map[string]int32
	postings  [][]Posting
	cf        []int64
	total     int64
	blockSize int

	// Forward-index input, in provisional term numbers until Build knows
	// the sorted dictionary: every document's token IDs in text order and
	// its per-field token counts. noForward latches once a document arrives
	// without field boundaries (Add); such an index gets no forward index.
	fwdIDs    []int32
	fwdLens   []int32
	fwdFields []int32 // per document: how many entries of fwdLens are its
	noForward bool
}

// NewBuilder returns an empty Builder producing postings in blocks of
// DefaultBlockSize.
func NewBuilder() *Builder {
	return &Builder{
		seen:  make(map[string]bool),
		terms: make(map[string]int32),
	}
}

// SetBlockSize sets the posting-block capacity of the built index (n <= 0
// keeps DefaultBlockSize; sizes beyond MaxBlockSize clamp). Retrieval
// output is bit-identical at any capacity — tests sweep it to put block
// boundaries everywhere.
func (b *Builder) SetBlockSize(n int) { b.blockSize = n }

// ErrDuplicateDoc is returned when the same external document ID is added
// twice.
var ErrDuplicateDoc = errors.New("index: duplicate document ID")

// Add indexes one document given its external ID and analyzed tokens.
// Documents are assigned consecutive internal numbers in insertion order.
// An index with a document added this way carries no forward index; use
// AddFields to get one.
func (b *Builder) Add(docID string, tokens []string) error {
	return b.AddFields(docID, tokens, nil)
}

// AddFields is Add for a document whose whitespace-field boundaries are
// known: fieldLens[i] is the number of tokens field i of the text
// contributed (text.Analyzer.FieldTokens), summing to len(tokens). The
// same token stream feeds the postings and the index's forward index, so
// a document is analyzed once for both. A nil fieldLens says the
// boundaries are unknown (a text without fields has an empty, non-nil
// one): the document is indexed and the index gets no forward index.
func (b *Builder) AddFields(docID string, tokens []string, fieldLens []int32) error {
	if b.seen[docID] {
		return fmt.Errorf("%w: %q", ErrDuplicateDoc, docID)
	}
	if fieldLens == nil {
		b.noForward = true
	}
	if !b.noForward {
		sum := 0
		for _, n := range fieldLens {
			sum += int(n)
		}
		if sum != len(tokens) {
			return fmt.Errorf("index: document %q: field lengths cover %d of %d tokens", docID, sum, len(tokens))
		}
	}
	b.seen[docID] = true
	doc := int32(len(b.docIDs))
	b.docIDs = append(b.docIDs, docID)
	b.docLens = append(b.docLens, int32(len(tokens)))
	b.total += int64(len(tokens))

	// Term numbers here are provisional (first-seen order); Build sorts
	// the dictionary and renumbers. A term's posting for this document is
	// the last of its list while the document is being added, so a repeat
	// occurrence bumps that posting's tf instead of counting in a map.
	for _, t := range tokens {
		id, ok := b.terms[t]
		if !ok {
			id = int32(len(b.postings))
			b.terms[t] = id
			b.postings = append(b.postings, nil)
			b.cf = append(b.cf, 0)
		}
		if pl := b.postings[id]; len(pl) > 0 && pl[len(pl)-1].Doc == doc {
			pl[len(pl)-1].TF++
		} else {
			b.postings[id] = append(pl, Posting{Doc: doc, TF: 1})
		}
		b.cf[id]++
		if !b.noForward {
			b.fwdIDs = append(b.fwdIDs, id)
		}
	}
	if !b.noForward {
		b.fwdLens = append(b.fwdLens, fieldLens...)
		b.fwdFields = append(b.fwdFields, int32(len(fieldLens)))
	}
	return nil
}

// NumDocs returns the number of documents added so far.
func (b *Builder) NumDocs() int { return len(b.docIDs) }

// Build finalizes the index. The Builder must not be used afterwards.
//
// Term IDs are renumbered so the dictionary is lexicographically sorted:
// ascending term ID order equals ascending string order. The similarity
// substrate (textsim.Lexicon seeded from this dictionary) depends on that
// invariant to keep interned-vector merges in the same order as
// string-sorted merges, and the image persists it. Postings are then
// encoded in blocks of the SetBlockSize capacity.
func (b *Builder) Build() *Index {
	// Postings were appended in doc order already (Add assigns increasing
	// doc numbers), so no per-term sort is needed; assert order in debug
	// builds by construction.
	termList := make([]string, len(b.terms))
	for t, id := range b.terms {
		termList[id] = t
	}
	var perm []int32
	termList, b.postings, b.cf, perm = sortDictionary(termList, b.postings, b.cf, b.terms)
	blockCap := normBlockSize(b.blockSize)
	plists, nBlocks := assemblePostings(b.postings, blockCap)
	idx := &Index{
		docIDs:   b.docIDs,
		docLens:  b.docLens,
		terms:    b.terms,
		termList: termList,
		plists:   plists,
		blockCap: blockCap,
		nBlocks:  nBlocks,
		cf:       b.cf,
		total:    b.total,
	}
	if !b.noForward {
		idx.fwd = b.buildForward(perm, len(termList))
	}
	return idx
}

// buildForward encodes the accumulated per-document token IDs under the
// final term numbering (perm maps provisional to final; nil is identity).
func (b *Builder) buildForward(perm []int32, numTerms int) *Forward {
	if perm != nil {
		for i, id := range b.fwdIDs {
			b.fwdIDs[i] = perm[id]
		}
	}
	w := newForwardWriter(len(b.docIDs))
	w.blob = make([]byte, 0, 2*len(b.fwdIDs)+len(b.fwdLens))
	ids, lens := b.fwdIDs, b.fwdLens
	for d, nf := range b.fwdFields {
		n := b.docLens[d]
		w.add(ids[:n], lens[:nf])
		ids, lens = ids[n:], lens[nf:]
	}
	w.blob = slices.Clone(w.blob) // the arena lives as long as the index: drop the spare capacity
	return w.forward(numTerms)
}

// sortDictionary renumbers term IDs so termList is lexicographically
// sorted, permuting postings and cf to match and rewriting the ids map
// values in place; perm maps each old ID to its new one. Already-sorted
// dictionaries pass through untouched with a nil perm.
func sortDictionary(termList []string, postings [][]Posting, cf []int64, ids map[string]int32) ([]string, [][]Posting, []int64, []int32) {
	if sort.StringsAreSorted(termList) {
		return termList, postings, cf, nil
	}
	sorted := make([]string, len(termList))
	copy(sorted, termList)
	sort.Strings(sorted)
	newPostings := make([][]Posting, len(sorted))
	newCF := make([]int64, len(sorted))
	perm := make([]int32, len(sorted))
	for newID, t := range sorted {
		old := ids[t]
		newPostings[newID] = postings[old]
		newCF[newID] = cf[old]
		perm[old] = int32(newID)
		ids[t] = int32(newID)
	}
	return sorted, newPostings, newCF, perm
}

// Index is an immutable inverted index. The one exception to the
// immutability is the max-score table sets (SetMaxScores and
// SetBlockMaxScores), which must be populated while the index is still
// privately owned — at build or load time, before it is shared across
// goroutines.
type Index struct {
	docIDs   []string
	docLens  []int32
	terms    map[string]int32
	termList []string
	plists   []postingList
	blockCap int // posting block capacity
	nBlocks  int // total blocks across the dictionary
	cf       []int64
	total    int64
	// maxScores holds per-term upper bounds on a single posting's model
	// score contribution, keyed by the scoring function's identity
	// (ranking.Boundable.BoundKey()). MaxScore dynamic pruning consumes
	// these; the image persists them.
	maxScores map[string][]float64
	// blockMax refines maxScores to block granularity: per key, one upper
	// bound per posting block, indexed by the index-wide block numbering
	// (postingList.blk0). The image persists it.
	blockMax map[string][]float64

	// Image state (RIDX7, see mapped.go / codec_v7.go). A built index
	// leaves all of this zero. mapping refcounts the backing byte region
	// (nil for an image read onto an owned slab); unverified marks posting
	// bytes that were never validation-decoded (a mapped image's — a
	// slab's are validated when it is read), switching iterators to the
	// defensive block decoder; terms is nil in this layout (termID
	// binary-searches the sorted termList instead); payOffs/payBlob are
	// the optional per-document payload sections.
	mapping    *Mapping
	closed     atomic.Bool
	unverified bool
	payOffs    []uint64
	payBlob    []byte

	// fwd is the forward index (forward.go): heap-built by the Builder or
	// RebuildForward, or a view of a mapped image's forward sections. nil
	// when the index has none.
	fwd *Forward
}

// iterRange builds a posting iterator over [lo, hi) of the term's list,
// wiring the index's storage contract into it: mapped indexes are
// retained for the iterator's lifetime (Release drops the reference)
// and decode blocks defensively.
func (x *Index) iterRange(id, lo, hi int32) PostingIterator {
	it := x.plists[id].iter(lo, hi)
	it.safe = x.unverified
	if x.mapping != nil {
		x.mapping.retain()
		it.m = x.mapping
	}
	return it
}

// NumDocs returns the number of indexed documents.
func (x *Index) NumDocs() int { return len(x.docIDs) }

// NumTerms returns the dictionary size.
func (x *Index) NumTerms() int { return len(x.termList) }

// BlockSize returns the posting block capacity.
func (x *Index) BlockSize() int { return x.blockCap }

// NumBlocks returns the total posting-block count across the dictionary —
// the length of every block-max table.
func (x *Index) NumBlocks() int { return x.nBlocks }

// DocID maps an internal document number to its external ID.
func (x *Index) DocID(doc int32) string { return x.docIDs[doc] }

// DocLen returns the token count of the document.
func (x *Index) DocLen(doc int32) int32 { return x.docLens[doc] }

// Stats returns the collection statistics.
func (x *Index) Stats() CollectionStats {
	n := int64(len(x.docIDs))
	avg := 0.0
	if n > 0 {
		avg = float64(x.total) / float64(n)
	}
	return CollectionStats{NumDocs: n, TotalTokens: x.total, AvgDocLen: avg}
}

// Lookup returns the statistics of term, if indexed.
func (x *Index) Lookup(term string) (TermStats, bool) {
	id, ok := x.termID(term)
	if !ok {
		return TermStats{}, false
	}
	return TermStats{ID: id, DF: int64(x.plists[id].n), CF: x.cf[id]}, true
}

// LookupIter returns the statistics and a posting iterator for term in
// ONE dictionary probe — the hot-path entry every evaluator uses. The
// iterator must be Released when traversal ends.
func (x *Index) LookupIter(term string) (TermStats, PostingIterator, bool) {
	id, ok := x.termID(term)
	if !ok {
		return TermStats{}, PostingIterator{done: true}, false
	}
	pl := &x.plists[id]
	return TermStats{ID: id, DF: int64(pl.n), CF: x.cf[id]}, x.iterRange(id, 0, math.MaxInt32), true
}

// PostingIter returns an iterator over the full posting list of an
// internal term number. Release it when done.
func (x *Index) PostingIter(id int32) PostingIterator {
	return x.iterRange(id, 0, math.MaxInt32)
}

// Postings returns the postings of term (nil if absent), decoded into a
// fresh slice; evaluators use LookupIter instead and stream block at a
// time.
func (x *Index) Postings(term string) []Posting {
	id, ok := x.termID(term)
	if !ok {
		return nil
	}
	return x.plists[id].materialize(x.unverified)
}

// PostingsByID returns the postings for an internal term number, decoded
// into a fresh slice.
func (x *Index) PostingsByID(id int32) []Posting { return x.plists[id].materialize(x.unverified) }

// Term returns the term string for an internal term number.
func (x *Index) Term(id int32) string { return x.termList[id] }

// Terms returns the dictionary in term-ID order, which Build guarantees
// is lexicographic. The slice is shared with the index and must not be
// modified — it exists so the similarity layer can seed a term lexicon
// without copying the dictionary.
func (x *Index) Terms() []string { return x.termList }

// DF returns the document frequency of an internal term number: the
// length of its posting list. Together with NumTerms/NumDocs it is the
// allocation-free way to walk the dictionary's frequency statistics
// (it satisfies textsim.DocFreqSource).
func (x *Index) DF(id int32) int { return int(x.plists[id].n) }

// MaxScores returns the per-term maximum score-contribution table
// registered under key, or nil if none is. The table is indexed by
// internal term ID: entry t is an upper bound on the score any single
// posting of term t can contribute under the scoring function key
// identifies. The returned slice is shared and must not be modified.
func (x *Index) MaxScores(key string) []float64 { return x.maxScores[key] }

// MaxScoreKeys returns the registered max-score table keys in sorted
// order (stats endpoints and the image writer rely on the determinism).
func (x *Index) MaxScoreKeys() []string {
	keys := make([]string, 0, len(x.maxScores))
	for k := range x.maxScores {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// SetMaxScores registers a max-score table under key, replacing any
// previous table with that key. The table must have one entry per
// dictionary term, and every entry must be a finite nonnegative bound —
// the pruning machinery treats the values as proof that postings beyond
// them cannot exist. Like the rest of index construction this is NOT safe
// for concurrent use: call it while the index is still privately owned
// (engine build/load time), never after the index is shared.
func (x *Index) SetMaxScores(key string, scores []float64) error {
	if len(scores) != len(x.termList) {
		return fmt.Errorf("index: max-score table %q has %d entries for %d terms",
			key, len(scores), len(x.termList))
	}
	for i, v := range scores {
		if !(v >= 0) || v > math.MaxFloat64 {
			return fmt.Errorf("index: max-score table %q entry %d is %v, want finite >= 0", key, i, v)
		}
	}
	if x.maxScores == nil {
		x.maxScores = make(map[string][]float64, 4)
	}
	x.maxScores[key] = scores
	return nil
}

// BlockMaxScores returns the per-block maximum score-contribution table
// registered under key (indexed by the index-wide block numbering), or
// nil. The returned slice is shared and must not be modified.
func (x *Index) BlockMaxScores(key string) []float64 { return x.blockMax[key] }

// BlockMaxKeys returns the registered block-max table keys in sorted
// order.
func (x *Index) BlockMaxKeys() []string {
	keys := make([]string, 0, len(x.blockMax))
	for k := range x.blockMax {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TermBlockMax returns the slice of key's block-max table covering the
// given term's blocks (aligned with the term's block sequence), or nil
// when the table is absent. Evaluators attach it to the term's iterator
// via SetBlockMax.
func (x *Index) TermBlockMax(key string, id int32) []float64 {
	t := x.blockMax[key]
	if t == nil {
		return nil
	}
	pl := &x.plists[id]
	return t[pl.blk0 : int(pl.blk0)+len(pl.blocks)]
}

// SetBlockMaxScores registers a block-max table under key: one finite
// nonnegative upper bound per posting block, in index-wide block order.
// Same ownership contract as SetMaxScores: call while the index is
// privately owned.
func (x *Index) SetBlockMaxScores(key string, scores []float64) error {
	if len(scores) != x.nBlocks {
		return fmt.Errorf("index: block-max table %q has %d entries for %d blocks",
			key, len(scores), x.nBlocks)
	}
	for i, v := range scores {
		if !(v >= 0) || v > math.MaxFloat64 {
			return fmt.Errorf("index: block-max table %q entry %d is %v, want finite >= 0", key, i, v)
		}
	}
	if x.blockMax == nil {
		x.blockMax = make(map[string][]float64, 4)
	}
	x.blockMax[key] = scores
	return nil
}

// ComputeMaxScores walks every posting once and returns the per-term
// maximum of score(tf, docLen, termStats, collectionStats) — the table
// MaxScore pruning consumes. Negative scores are floored at 0 so the
// result is always a valid SetMaxScores table; scoring functions meant
// for pruning are nonnegative anyway (ranking.Boundable's contract).
func (x *Index) ComputeMaxScores(score ScoreFunc) []float64 {
	c := x.Stats()
	out := make([]float64, len(x.termList))
	tab := new(ScoreTable)
	for id := range x.plists {
		pl := &x.plists[id]
		t := TermStats{ID: int32(id), DF: int64(pl.n), CF: x.cf[id]}
		tab.Reset()
		max := 0.0
		it := x.iterRange(int32(id), 0, math.MaxInt32)
		for blk := it.NextBlock(); blk != nil; blk = it.NextBlock() {
			for _, p := range blk {
				if s := tab.Score(score, p.TF, x.docLens[p.Doc], t, c); s > max {
					max = s
				}
			}
		}
		it.Release()
		out[id] = max
	}
	return out
}

// ComputeBlockMaxScores is ComputeMaxScores at block granularity: one
// pass over every posting producing, per block, the maximum score any of
// its postings can contribute (floored at 0), in index-wide block order —
// a valid SetBlockMaxScores table. The per-term maximum is the max over
// the term's entries, so callers needing both tables can derive one from
// the other exactly.
func (x *Index) ComputeBlockMaxScores(score ScoreFunc) []float64 {
	c := x.Stats()
	out := make([]float64, x.nBlocks)
	scratch := blockScratch.Get().(*[]Posting)
	defer blockScratch.Put(scratch)
	tab := new(ScoreTable)
	for id := range x.plists {
		pl := &x.plists[id]
		t := TermStats{ID: int32(id), DF: int64(pl.n), CF: x.cf[id]}
		tab.Reset()
		base := int32(-1)
		for bi, h := range pl.blocks {
			if bi > 0 {
				base = pl.blocks[bi-1].maxDoc
			}
			var blk []Posting
			if x.unverified {
				end := uint64(len(pl.data))
				if bi+1 < len(pl.blocks) {
					end = uint64(pl.blocks[bi+1].off)
				}
				dec, ok := decodeBlockSafe((*scratch)[:0], pl.data, h, base, end)
				if !ok {
					// Corrupt mapped block: the iterator path ends the
					// list at this block, so no posting of it is ever
					// served and a 0 bound stays sound.
					*scratch = dec[:0]
					continue
				}
				blk = dec
			} else {
				blk = decodeBlock((*scratch)[:0], pl.data, h, base)
			}
			*scratch = blk[:0]
			max := 0.0
			for _, p := range blk {
				if s := tab.Score(score, p.TF, x.docLens[p.Doc], t, c); s > max {
					max = s
				}
			}
			out[int(pl.blk0)+bi] = max
		}
	}
	return out
}
