package core

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/stats"
)

// AspectIndex is one inverted index over every R_q′ list of a
// specialization set: all that Definition 2 reads of the results'
// surrogate vectors. Each indexed term, in ascending term ID, lists the
// cells it occurs in — cell j·stride + r is result r of list j — grouped
// into runs of cells where the term has the same weight; beside the
// postings sit each result's vector norm and each list's normalizer
// H_{|R_q′_j|}. One pass of a candidate's sorted terms through the index
// scores it against every result of every list (UtilityScorer.ScoreInto).
//
// A weight is stored once per run, not once per cell: surrogate weights
// are counts times a term's IDF, so a term's cells share a few values,
// and the index is smaller than the vectors it is built from (see
// cmd/footprint). The serving cache builds one per artifact
// (NewAspectIndex) and drops those vectors; a scorer over a Problem
// without one builds the same index from the results' IVecs into pooled
// scratch. A result whose vector has norm 0 has no postings: its
// similarity is 0 whatever the dot product. Immutable once built, so
// concurrent requests share it.
type AspectIndex struct {
	stride    int       // cells per list: the longest list's length
	terms     []int32   // distinct term IDs, ascending
	termRuns  []int32   // len(terms)+1 offsets into runWeight and runCells
	runWeight []float64 // the term's weight in each cell of the run
	runCells  []int32   // len(runWeight)+1 offsets into cells
	cells     []int32   // j·stride + r, ascending within a run
	norms     []float64 // ‖vector‖ of each cell's result; 0 for padding
	h         []float64 // H_{|R_q′_j|} per list
}

// NewAspectIndex builds the aspect index of specs from their results'
// IVecs in exact-size arrays — two besides the struct — for a caller that
// keeps it.
func NewAspectIndex(specs []Specialization) *AspectIndex {
	ix := new(AspectIndex)
	sc := utilScratchPool.Get().(*utilScratch)
	ix.build(specs, &sc.sort)
	utilScratchPool.Put(sc)
	return ix
}

// aspectSort is the pooled sort buffer of an index build. keys[p] holds
// posting p's term ID (sign bit flipped, so unsigned order is signed
// order) in the high half and p itself in the low half; postings are
// numbered in list, result, term order, so one integer sort puts them in
// (term, cell) order. cell and w are posting p's cell and weight.
type aspectSort struct {
	keys []uint64
	cell []int32
	w    []float64
}

// build (re)fills ix from specs. Its arrays are carved from two slabs
// that are reused when large enough (pooled scratch) and allocated at
// exactly the size needed otherwise (an artifact's index).
func (ix *AspectIndex) build(specs []Specialization, sc *aspectSort) {
	stride, np := 0, 0
	for j := range specs {
		results := specs[j].Results
		stride = max(stride, len(results))
		for r := range results {
			if results[r].IVec.Norm() != 0 {
				np += results[r].IVec.Len()
			}
		}
	}
	sc.keys = resize(sc.keys, np)[:0]
	sc.cell = resize(sc.cell, np)[:0]
	sc.w = resize(sc.w, np)[:0]
	for j := range specs {
		for r := range specs[j].Results {
			iv := &specs[j].Results[r].IVec
			if iv.Norm() == 0 {
				continue
			}
			cell := int32(j*stride + r)
			for t, id := range iv.IDs {
				sc.keys = append(sc.keys, uint64(uint32(id)^1<<31)<<32|uint64(len(sc.keys)))
				sc.cell = append(sc.cell, cell)
				sc.w = append(sc.w, iv.Weights[t])
			}
		}
	}
	keys := sc.keys
	slices.Sort(keys)
	// Within a term, equal weights (by bits) become adjacent, in cell
	// order. A cell gets one contribution per term, so this changes no
	// cell's addition order.
	wbits := func(k uint64) uint64 { return math.Float64bits(sc.w[uint32(k)]) }
	byWeight := func(x, y uint64) int {
		if c := cmp.Compare(wbits(x), wbits(y)); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	}
	for a := 0; a < len(keys); {
		b := a + 1
		for b < len(keys) && keys[b]>>32 == keys[a]>>32 {
			b++
		}
		if b-a > 1 {
			slices.SortFunc(keys[a:b], byWeight)
		}
		a = b
	}
	newTerm := func(i int) bool { return i == 0 || keys[i]>>32 != keys[i-1]>>32 }
	newRun := func(i int) bool { return newTerm(i) || wbits(keys[i]) != wbits(keys[i-1]) }
	nt, nr := 0, 0
	for i := range keys {
		if newTerm(i) {
			nt++
		}
		if newRun(i) {
			nr++
		}
	}

	s, nc := len(specs), len(specs)*stride
	ints := resize(ix.terms, nt+(nt+1)+(nr+1)+np)
	floats := resize(ix.runWeight, nr+nc+s)
	ix.stride = stride
	ix.terms, ints = ints[:nt], ints[nt:]
	ix.termRuns, ints = ints[:nt+1], ints[nt+1:]
	ix.runCells, ix.cells = ints[:nr+1], ints[nr+1:]
	ix.runWeight, ix.norms, ix.h = floats[:nr], floats[nr:nr+nc], floats[nr+nc:]
	ti, ri := -1, -1
	for i, k := range keys {
		if newTerm(i) {
			ti++
			ix.terms[ti], ix.termRuns[ti] = int32(uint32(k>>32)^1<<31), int32(ri+1)
		}
		if newRun(i) {
			ri++
			ix.runWeight[ri], ix.runCells[ri] = sc.w[uint32(k)], int32(i)
		}
		ix.cells[i] = sc.cell[uint32(k)]
	}
	ix.termRuns[nt], ix.runCells[nr] = int32(nr), int32(np)
	clear(ix.norms)
	for j := range specs {
		results := specs[j].Results
		ix.h[j] = stats.Harmonic(len(results))
		for r := range results {
			ix.norms[j*stride+r] = results[r].IVec.Norm()
		}
	}
}

// gallop returns the first position at or after lo whose term ID is at
// least id, given terms[lo] < id: an exponential probe, then a binary
// search of the last step. A candidate holds a few dozen terms and the
// index a few hundred, so skipping beats a merge.
func gallop(terms []int32, lo int, id int32) int {
	step, hi := 1, lo+1
	for hi < len(terms) && terms[hi] < id {
		lo = hi
		step *= 2
		hi = lo + step
	}
	hi = min(hi, len(terms))
	// terms[lo] < id, and hi is len(terms) or terms[hi] >= id.
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if terms[mid] < id {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}
