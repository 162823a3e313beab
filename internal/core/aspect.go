package core

import (
	"math"

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
// repro footprint). The serving cache builds one per artifact
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
// numbered in list, result, term order, so putting them in (term, cell)
// order is ordering the keys. cell and w are posting p's cell and weight.
// order uses the rest as space.
type aspectSort struct {
	keys []uint64
	cell []int32
	w    []float64

	tmp   []uint64     // the other radix buffer
	slots []weightSlot // a term's distinct weights, as first met
	seen  []int32      // a term's postings' places in slots
}

// weightSlot is one of a term's distinct weights: its bits, how many of
// the term's postings have it, and where the next of them goes.
type weightSlot struct {
	bits  uint64
	n, at int
}

// build (re)fills ix from specs. Its arrays are carved from two slabs
// that are reused when large enough (pooled scratch) and allocated at
// exactly the size needed otherwise (an artifact's index).
func (ix *AspectIndex) build(specs []Specialization, sc *aspectSort) {
	sc.collect(specs)
	nt, nr := sc.order()
	ix.assemble(specs, sc, nt, nr)
}

// collect numbers the postings of specs' results and fills keys, cell
// and w in posting order.
func (sc *aspectSort) collect(specs []Specialization) {
	stride, np := specStride(specs), 0
	for j := range specs {
		results := specs[j].Results
		for r := range results {
			if results[r].IVec.Norm() != 0 {
				np += results[r].IVec.Len()
			}
		}
	}
	keys := resize(sc.keys, np)
	cells := resize(sc.cell, np)
	ws := resize(sc.w, np)
	sc.keys, sc.cell, sc.w = keys, cells, ws
	n := 0
	for j := range specs {
		for r := range specs[j].Results {
			iv := &specs[j].Results[r].IVec
			if iv.Norm() == 0 {
				continue
			}
			cell := int32(j*stride + r)
			for t, id := range iv.IDs {
				keys[n] = uint64(uint32(id)^1<<31)<<32 | uint64(n)
				cells[n], ws[n] = cell, iv.Weights[t]
				n++
			}
		}
	}
}

// specStride is the index's cells per list: the longest list's length.
func specStride(specs []Specialization) int {
	stride := 0
	for j := range specs {
		stride = max(stride, len(specs[j].Results))
	}
	return stride
}

// order puts the keys in (term, weight bits, posting) order: within a
// term, equal weights adjacent, in cell order. A cell gets one
// contribution per term, so this changes no cell's addition order. It
// counts rather than compares: a stable LSD radix sort on the term half,
// a byte a pass and only over the bytes the terms differ in, keeps each
// term's postings in posting order; then they are bucketed, stably, by
// the term's distinct weights into the other buffer, which becomes keys.
// It returns the number of terms and of runs of equal weight, which it
// learns on the way.
func (sc *aspectSort) order() (nt, nr int) {
	src, dst := sc.keys, resize(sc.tmp, len(sc.keys))
	// One pass counts every byte of the term half; a byte all keys share
	// needs no pass.
	var count [4][256]int
	for _, k := range src {
		count[0][byte(k>>32)]++
		count[1][byte(k>>40)]++
		count[2][byte(k>>48)]++
		count[3][byte(k>>56)]++
	}
	for d := range count {
		next, shift := &count[d], 32+8*d
		if len(src) == 0 || next[byte(src[0]>>shift)] == len(src) {
			continue
		}
		sum := 0
		for b, c := range next {
			next[b] = sum
			sum += c
		}
		for _, k := range src {
			b := byte(k >> shift)
			dst[next[b]] = k
			next[b]++
		}
		src, dst = dst, src
	}
	slots, seen := sc.slots, resize(sc.seen, len(src))
	for a := 0; a < len(src); {
		b := a + 1
		for b < len(src) && src[b]>>32 == src[a]>>32 {
			b++
		}
		nt++
		if b-a == 1 {
			dst[a] = src[a]
			nr++
		} else {
			slots = byWeight(src[a:b], dst[a:b], sc.w, slots, seen)
			nr += len(slots)
		}
		a = b
	}
	sc.keys, sc.tmp, sc.slots, sc.seen = dst, src, slots, seen
	return nt, nr
}

// byWeight writes one term's postings g to out ordered by the bits of
// their weights w, stably, and returns slots grown as needed. A term's
// weights are its counts times one IDF, so there are few: one pass finds
// each posting's weight among them by a short scan and counts them, and a
// second scatters the postings to their weight's place.
func byWeight(g, out []uint64, w []float64, slots []weightSlot, seen []int32) []weightSlot {
	slots = slots[:0]
	for i, k := range g {
		bits := math.Float64bits(w[uint32(k)])
		r := 0
		for r < len(slots) && slots[r].bits != bits {
			r++
		}
		if r == len(slots) {
			slots = append(slots, weightSlot{bits: bits})
		}
		seen[i] = int32(r)
		slots[r].n++
	}
	// A weight's run starts after the postings that weigh less.
	for r := range slots {
		for _, sl := range slots {
			if sl.bits < slots[r].bits {
				slots[r].at += sl.n
			}
		}
	}
	for i, k := range g {
		sl := &slots[seen[i]]
		out[sl.at] = k
		sl.at++
	}
	return slots
}

// assemble fills ix from the ordered keys, which hold nt terms and nr runs
// of equal weight: the terms, their runs, the runs' cells, the results'
// norms and the lists' H_j.
func (ix *AspectIndex) assemble(specs []Specialization, sc *aspectSort, nt, nr int) {
	keys, w := sc.keys, sc.w
	stride, np := specStride(specs), len(keys)
	s, nc := len(specs), len(specs)*stride
	ints := resize(ix.terms, nt+(nt+1)+(nr+1)+np)
	floats := resize(ix.runWeight, nr+nc+s)
	ix.stride = stride
	ix.terms, ints = ints[:nt], ints[nt:]
	ix.termRuns, ints = ints[:nt+1], ints[nt+1:]
	ix.runCells, ix.cells = ints[:nr+1], ints[nr+1:]
	ix.runWeight, ix.norms, ix.h = floats[:nr], floats[nr:nr+nc], floats[nr+nc:]
	// A key's term half is below 1<<32, so no key continues the term of
	// the sentinel noTerm.
	const noTerm = ^uint64(0)
	ti, ri := 0, 0
	for i, pt, pw := 0, noTerm, uint64(0); i < len(keys); i++ {
		k := keys[i]
		t, wb := k>>32, math.Float64bits(w[uint32(k)])
		if t != pt {
			ix.terms[ti], ix.termRuns[ti] = int32(uint32(t)^1<<31), int32(ri)
			ti++
		}
		if t != pt || wb != pw {
			ix.runWeight[ri], ix.runCells[ri] = w[uint32(k)], int32(i)
			ri++
		}
		ix.cells[i] = sc.cell[uint32(k)]
		pt, pw = t, wb
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
