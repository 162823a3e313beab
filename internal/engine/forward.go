package engine

import (
	"context"
	"slices"
	"sync"

	"repro/internal/index"
	"repro/internal/ranking"
	"repro/internal/text"
	"repro/internal/textsim"
)

// The forward path: how a retrieved document becomes a snippet or a
// surrogate vector without its body being analyzed again. Every source of
// a snapshot — sealed segments and the memtable view — carries a forward
// index (index.Forward) in its OWN dictionary's term numbers, filled by
// the same analysis pass that fed its postings. Surrogate vectors live in
// the snapshot's lexicon, whose sorted base is the base segment's
// dictionary: for the base segment the two numberings coincide, every
// other source carries a translation table (segment.xlat).

// analyze is the one analysis pass a document gets: its tokens for the
// inverted index and, per whitespace field of title + " " + body, how
// many of them the field contributed, for the forward index. tokens and
// lens are appended to (pass them back in, cut to length 0, to reuse the
// space); the returned lens is never nil.
func analyze(a *text.Analyzer, t docText, tokens []string, lens []int32) ([]string, []int32) {
	if lens == nil {
		lens = make([]int32, 0, (len(t.title)+len(t.body))/6+1)
	}
	tokens, lens = a.FieldTokens(tokens, lens, t.title)
	return a.FieldTokens(tokens, lens, t.body)
}

// translate maps idx's term numbers to lex's IDs, interning terms the
// lexicon has not seen (they land in its overflow region).
func translate(lex *textsim.Lexicon, idx *index.Index) []int32 {
	xlat := make([]int32, idx.NumTerms())
	for i, t := range idx.Terms() {
		xlat[i] = lex.Intern(t)
	}
	return xlat
}

// memSource is the memtable view wrapped as a searchable source, cached
// per view: views are rebuilt once per mutation and shared by every
// search until the next, and so is the translation table.
type memSource struct {
	mv  *index.MemView
	lex *textsim.Lexicon
	sg  *segment
}

// sources lists what a search over the snapshot retrieves from: the
// sealed segments, then the memtable view when it holds documents.
func (e *Engine) sources(st *state, mv *index.MemView) []*segment {
	if mv == nil {
		return st.segs
	}
	ms := e.memSrc.Load()
	if ms == nil || ms.mv != mv || ms.lex != st.lex {
		texts := make([]docText, mv.NumDocs())
		for d := range texts {
			texts[d] = docText{body: mv.PayloadAt(int32(d))}
		}
		idx := mv.Seg.Index()
		ms = &memSource{mv: mv, lex: st.lex, sg: &segment{
			seg: mv.Seg, docs: &textStore{idx: idx, texts: texts}, xlat: translate(st.lex, idx),
		}}
		e.memSrc.Store(ms) // racing searches build equal tables; either may win
	}
	return append(st.segs[:len(st.segs):len(st.segs)], ms.sg)
}

// termSet resolves a query's analyzed tokens to idx's term numbers,
// ascending and distinct, dropping those the dictionary does not hold (no
// field can match them).
func termSet(idx *index.Index, qTokens []string) []int32 {
	return appendTermSet(make([]int32, 0, len(qTokens)), idx, qTokens)
}

// appendTermSet appends termSet(idx, qTokens) to dst.
func appendTermSet(dst []int32, idx *index.Index, qTokens []string) []int32 {
	from := len(dst)
	for _, t := range qTokens {
		if ts, ok := idx.Lookup(t); ok {
			dst = append(dst, ts.ID)
		}
	}
	slices.Sort(dst[from:])
	return dst[:from+len(slices.Compact(dst[from:]))]
}

// fwdScratch is the per-search decode space of window.
type fwdScratch struct {
	terms, fields []int32
	match, spare  []int32 // matched fields, and union's output space
}

var fwdScratchPool = sync.Pool{New: func() any { return new(fwdScratch) }}

// window picks document d's query-biased snippet window: the w-field
// window of its text holding the most fields with a term of q (the
// earliest on ties; a text of at most w fields is its own window). It
// returns the window as whitespace fields [lo, hi) and the term numbers
// the window's fields analyze to, ascending — the bag the surrogate
// vector counts. Both come from the forward index alone: no body is read,
// no string compared, nothing sorted, and no space sized by the field
// count, which the forward bytes claim and nothing checks. A document
// whose forward bytes are malformed has an empty window.
func (sg *segment) window(d int32, q []int32, w int, sc *fwdScratch) (lo, hi int, terms []int32) {
	var nf int
	var ok bool
	sc.terms, sc.fields, nf, ok = sg.seg.Index().Forward().Doc(d, sc.terms[:0], sc.fields[:0])
	if !ok || nf == 0 {
		return 0, 0, nil
	}
	terms = sc.terms
	if nf <= w {
		return 0, nf, terms
	}
	lo = bestStart(sc.matchedFields(q), w)
	// The entries are in (term, field) order, so keeping those inside the
	// window keeps the terms ascending.
	n := 0
	for i, f := range sc.fields {
		terms[n] = terms[i]
		n += b2i(uint(int(f)-lo) < uint(w))
	}
	return lo, lo + w, terms[:n]
}

// matchedFields returns the fields, ascending and distinct, in which the
// decoded entry holds a term of q: one merge of the entry's terms with q,
// each matched term's fields (ascending) folded into the union.
func (sc *fwdScratch) matchedFields(q []int32) []int32 {
	m, i := sc.match[:0], 0
	for _, t := range q {
		for i < len(sc.terms) && sc.terms[i] < t {
			i++
		}
		j := i
		for j < len(sc.terms) && sc.terms[j] == t {
			j++
		}
		if j > i {
			m, sc.spare = union(m, sc.fields[i:j], sc.spare)
		}
		i = j
	}
	sc.match = m
	return m
}

// union merges run (ascending, repeats allowed) into m (ascending,
// distinct), writing into spare's space; it returns the union and m's
// space for the next call.
func union(m, run, spare []int32) (out, free []int32) {
	out = spare[:0]
	i, j := 0, 0
	for i < len(m) || j < len(run) {
		var f int32
		if j == len(run) || (i < len(m) && m[i] <= run[j]) {
			f, i = m[i], i+1
		} else {
			f, j = run[j], j+1
		}
		if len(out) == 0 || out[len(out)-1] != f {
			out = append(out, f)
		}
	}
	return out, m[:0]
}

// bestStart returns the start of the earliest w-field window holding the
// most of the matched fields m (ascending, distinct). That window starts
// at 0 or ends on a matched field — a later start that beats the one
// before it gained a field at its right edge — so only those starts are
// counted, with two pointers: a window ending on m[i] holds m[j..i].
func bestStart(m []int32, w int) int {
	best, lo, j := 0, 0, 0
	for i, f := range m {
		s := int(f) - w + 1
		if s <= 0 {
			best = i + 1 // the window at 0 holds m[0..i]
			continue
		}
		for int(m[j]) < s {
			j++
		}
		if c := i - j + 1; c > best {
			best, lo = c, s
		}
	}
	return lo
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// retrieval is a query batch's merged hit lists over one pinned
// snapshot, before any snippet or surrogate exists: what SearchBatch,
// SearchShard, Candidates and the fused scan all start from. It comes
// from a pool with the space of its last use — query tokens, windowers —
// and goes back with release; the hit lists are the retrieval's own, and
// nothing else of it may be kept past release. Per-query lists are
// windows of one backing array, taken as it is appended to: a window
// stays valid when the array later outgrows its backing.
type retrieval struct {
	st    *state
	srcs  []*segment
	w     int        // Config.SnippetWindow
	qToks [][]string // windows of toks
	toks  []string
	hits  [][]ranking.Hit // Doc numbers are global: source offset + local
	wds   []windower      // per list, set up on first use

	// A shard search's lists and the hit its walk hands out: they never
	// leave the retrieval, so their space is reused (see searchShard).
	shardLists [][]ranking.Hit
	shardHit   ShardHit
}

var retrievalPool = sync.Pool{New: func() any { return new(retrieval) }}

// release hands the retrieval back to the pool, and every windower's
// decode space back to its own. The snapshot stays pinned: that is the
// caller's.
func (r *retrieval) release() {
	for i := range r.wds {
		r.wds[i].close()
	}
	clear(r.toks)
	clear(r.qToks)
	for _, l := range r.shardLists {
		clear(l)
	}
	r.shardHit = ShardHit{}
	r.st, r.srcs, r.hits, r.wds = nil, nil, nil, r.wds[:0]
	retrievalPool.Put(r)
}

// hitWindow is one hit with the snippet window picked for it: its source,
// local document number, the window as whitespace fields [lo, hi) and
// the window's term numbers, ascending (valid only during the callback).
type hitWindow struct {
	*ranking.Hit
	sg     *segment
	d      int32
	lo, hi int
	terms  []int32
}

// snippet cuts the window's text out of the document.
func (w hitWindow) snippet() string { return w.sg.docs.Text(w.d).cut(w.lo, w.hi) }

// vector counts the window's terms into the surrogate vector, carved out
// of slab (nil: allocated on its own).
func (w hitWindow) vector(idf textsim.SliceIDF, slab *textsim.Slab) textsim.IVector {
	return idf.InternSorted(w.terms, w.sg.xlat, slab)
}

// windower picks the snippet windows of one hit list: the query's term
// set in every source's numbering, resolved once, and the decode space.
// Not safe for concurrent use; close hands the space back.
type windower struct {
	r    *retrieval
	hits []ranking.Hit
	sets [][]int32 // windows of set, as retrieval's are
	set  []int32
	sc   *fwdScratch
}

// windower returns list qi's windower, setting it up on first use.
func (r *retrieval) windower(qi int) *windower {
	if len(r.wds) == 0 {
		r.wds = slices.Grow(r.wds, len(r.hits))[:len(r.hits)]
	}
	wd := &r.wds[qi]
	if wd.r != nil {
		return wd
	}
	wd.r, wd.hits, wd.sc = r, r.hits[qi], fwdScratchPool.Get().(*fwdScratch)
	wd.sets, wd.set = wd.sets[:0], wd.set[:0]
	for _, sg := range r.srcs {
		from := len(wd.set)
		wd.set = appendTermSet(wd.set, sg.seg.Index(), r.qToks[qi])
		wd.sets = append(wd.sets, wd.set[from:len(wd.set):len(wd.set)])
	}
	return wd
}

// close hands the decode space back. A windower never set up has none.
func (wd *windower) close() {
	if wd.r != nil {
		fwdScratchPool.Put(wd.sc)
		clear(wd.sets)
		wd.r, wd.hits, wd.sc = nil, nil, nil
	}
}

// at picks hit j's window. Its terms are valid until the next call.
func (wd *windower) at(j int) hitWindow {
	srcs := wd.r.srcs
	s, d := 0, wd.hits[j].Doc
	for ; d >= int32(srcs[s].seg.Index().NumDocs()); s++ {
		d -= int32(srcs[s].seg.Index().NumDocs())
	}
	w := hitWindow{Hit: &wd.hits[j], sg: srcs[s], d: d}
	w.lo, w.hi, w.terms = w.sg.window(d, wd.sets[s], wd.r.w, wd.sc)
	return w
}

// windows walks hit list qi in rank order, picks every hit's snippet
// window and hands it to f. ctx is polled every 64 hits.
func (r *retrieval) windows(ctx context.Context, qi int, f func(j int, w hitWindow)) error {
	wd := r.windower(qi)
	defer wd.close()
	for j := range wd.hits {
		if j&63 == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		f(j, wd.at(j))
	}
	return nil
}

// Candidates is a query batch retrieved against one pinned snapshot,
// with the second half of the document scoring phase — surrogate vectors
// — left to the caller's decision, candidate by candidate: a caller that
// ends up not diversifying (Algorithm 1 found the query unambiguous) never
// pays for them, and one whose selection proves a candidate cannot win
// never pays for that one. Close must be called; it releases the
// snapshot. Not safe for concurrent use.
type Candidates struct {
	// Lists[i] answers queries[i], in rank order: the retrieval's own
	// lists, which outlive Close.
	Lists [][]ranking.Hit
	// Epoch is the snapshot's epoch; Lex the lexicon the vectors are
	// interned under (Problem.Lex for problems built from them).
	Epoch uint64
	Lex   *textsim.Lexicon

	r *retrieval // nil once closed
}

// Candidates is SearchBatch for callers that want surrogate vectors
// instead of snippets: the same retrieval, bit for bit, but results carry
// no display string, and their vectors — equal to IVectorOfText of the
// snippet SearchBatch would have returned — are built from the forward
// index when Vector is called.
func (e *Engine) Candidates(ctx context.Context, queries []string, ks []int) (*Candidates, error) {
	st := e.snapshot()
	r, err := e.retrieve(ctx, st, queries, ks)
	if err != nil {
		st.unpin()
		return nil, err
	}
	return &Candidates{Lists: r.hits, Epoch: st.epoch, Lex: st.lex, r: r}, nil
}

// Vector builds the surrogate vector of candidate j of list q, and of no
// other: one forward-index decode and one window, counted into the
// caller's slab (nil: allocated on its own), which decides how long the
// vector lives. It must not be called after Close; the vectors it
// returned stay valid.
func (c *Candidates) Vector(q, j int, slab *textsim.Slab) textsim.IVector {
	return c.r.windower(q).at(j).vector(c.r.st.idf, slab)
}

// Close releases the snapshot the candidates were retrieved against.
// Idempotent; the lists and their vectors stay valid.
func (c *Candidates) Close() {
	if c.r != nil {
		c.r.st.unpin()
		c.r.release()
		c.r = nil
	}
}
