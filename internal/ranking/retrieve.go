package ranking

import (
	"math"
	"slices"
	"sync"

	"repro/internal/index"
	"repro/internal/topk"
)

// Hit is one retrieved document.
type Hit struct {
	Doc   int32   // internal document number
	DocID string  // external document ID
	Score float64 // retrieval score under the chosen model
	Rank  int     // 1-based rank in the result list
}

// accumulator is the dense score array behind Retrieve: scores indexed by
// internal document number, with an epoch array instead of per-query
// zeroing (a doc's score is live only when its epoch matches the current
// one) and a touched list so only matching documents are visited when the
// heap is filled. Compared to the map[int32]float64 it replaced, scoring
// becomes a bounds-checked array add — no hashing, no bucket chasing, no
// incremental map growth — and the backing arrays are pooled across
// queries.
type accumulator struct {
	scores  []float64
	epochs  []int32
	epoch   int32
	touched []int32
}

var accPool = sync.Pool{New: func() any { return new(accumulator) }}

// reset prepares the accumulator for a collection of numDocs documents.
func (a *accumulator) reset(numDocs int) {
	if len(a.scores) < numDocs {
		a.scores = make([]float64, numDocs)
		a.epochs = make([]int32, numDocs)
		a.epoch = 0
	}
	if a.epoch == math.MaxInt32 {
		// Epoch wrap: restart the numbering (zeroing is ~once per 2^31 uses).
		for i := range a.epochs {
			a.epochs[i] = 0
		}
		a.epoch = 0
	}
	a.epoch++
	a.touched = a.touched[:0]
}

// add accumulates v into doc's score, registering first touches.
func (a *accumulator) add(doc int32, v float64) {
	if a.epochs[doc] != a.epoch {
		a.epochs[doc] = a.epoch
		a.scores[doc] = v
		a.touched = append(a.touched, doc)
		return
	}
	a.scores[doc] += v
}

// Retrieve evaluates the analyzed query against the index document-at-a-
// time and returns the top-k hits ranked by descending score (ties broken
// by ascending document number, so results are deterministic). k <= 0
// means "all matching documents".
//
// Duplicate query terms contribute multiplicity: a term appearing twice in
// the query doubles its contribution, the standard bag-of-words treatment.
//
// Scores accumulate in a pooled dense array (see accumulator); per-doc
// contributions are added in sorted term order, so repeated identical
// queries produce bit-identical scores — the determinism the serving
// layer's cache-equivalence guarantee needs.
func Retrieve(idx *index.Index, model Model, queryTokens []string, k int) []Hit {
	if len(queryTokens) == 0 {
		return nil
	}
	cstats := idx.Stats()

	terms, mults := termMultiplicities(queryTokens)

	acc := accPool.Get().(*accumulator)
	defer accPool.Put(acc)
	acc.reset(idx.NumDocs())
	scratch := scoreTablePool.Get().(*scoreTables)
	defer scoreTablePool.Put(scratch)
	tab := &scratch.take(1)[0]
	termScore := model.TermScore
	for ti, term := range terms {
		mult := mults[ti]
		// One dictionary probe per term: stats and an iterator together.
		// The iterator streams the posting list one decoded block at a
		// time into pooled scratch.
		tstats, it, ok := idx.LookupIter(term)
		if !ok {
			continue
		}
		tab.Reset()
		for blk := it.NextBlock(); blk != nil; blk = it.NextBlock() {
			for _, p := range blk {
				s := tab.Score(termScore, p.TF, idx.DocLen(p.Doc), tstats, cstats)
				if s != 0 {
					acc.add(p.Doc, mult*s)
				}
			}
		}
		it.Release()
	}
	if len(acc.touched) == 0 {
		return nil
	}

	qLen := len(queryTokens)
	heap := topk.NewBounded[int32](boundFor(k, len(acc.touched)))
	for _, doc := range acc.touched {
		score := acc.scores[doc] + model.DocAdjust(float64(idx.DocLen(doc)), qLen, cstats)
		heap.Push(doc, score, int64(doc))
	}
	items := heap.DrainSorted()
	hits := make([]Hit, len(items))
	for i, it := range items {
		hits[i] = Hit{
			Doc:   it.Value,
			DocID: idx.DocID(it.Value),
			Score: it.Score,
			Rank:  i + 1,
		}
	}
	return hits
}

// termMultiplicities folds duplicate query tokens into multiplicities,
// returning the unique terms in sorted order with their parallel counts.
// Scoring must accumulate terms in a fixed order: float addition is not
// associative, and an unordered accumulation makes repeated identical
// queries differ in the last ulp — enough to flip ties downstream and
// break the serving layer's cache-equivalence guarantee. The fold works
// on a sorted copy of the token slice, so no map is built per query.
func termMultiplicities(queryTokens []string) ([]string, []float64) {
	return appendTermMultiplicities(make([]string, 0, len(queryTokens)), make([]float64, 0, len(queryTokens)), queryTokens)
}

// appendTermMultiplicities is termMultiplicities appending to terms and
// mults: the batch retrievals fold every query into one pooled pair.
func appendTermMultiplicities(terms []string, mults []float64, queryTokens []string) ([]string, []float64) {
	from := len(terms)
	terms = append(terms, queryTokens...)
	slices.Sort(terms[from:])
	out := terms[:from]
	for i, t := range terms[from:] {
		if i > 0 && t == out[len(out)-1] {
			mults[len(mults)-1]++
			continue
		}
		out = append(out, t)
		mults = append(mults, 1)
	}
	return out, mults
}

func boundFor(k, matched int) int {
	if k <= 0 || k > matched {
		return matched
	}
	return k
}

// ScoreDoc computes the model score of a single known document for the
// query — used by tests and by re-ranking code that needs P(d|q) for
// documents outside the retrieved top-k.
func ScoreDoc(idx *index.Index, model Model, queryTokens []string, doc int32) float64 {
	cstats := idx.Stats()
	terms, mults := termMultiplicities(queryTokens)
	total := 0.0
	matched := false
	for ti, term := range terms {
		mult := mults[ti]
		tstats, it, ok := idx.LookupIter(term)
		if !ok {
			continue
		}
		if p, found := it.SeekGE(doc); found && p.Doc == doc {
			s := model.TermScore(float64(p.TF), float64(idx.DocLen(doc)), tstats, cstats)
			total += mult * s
			matched = true
		}
		it.Release()
	}
	if !matched {
		return 0
	}
	return total + model.DocAdjust(float64(idx.DocLen(doc)), len(queryTokens), cstats)
}
