package topk

import (
	"math"
	"slices"
)

// Bounded keeps the best B items seen so far, by score (with the package's
// deterministic tie-break). Internally it is a min-heap of size at most B:
// pushing onto a full heap evicts the current worst item when the new item
// is better. This is the structure OptSelect uses for its
// per-specialization heaps of size floor(k*P(q'|q))+1: each insertion costs
// O(log B), which is the source of the algorithm's O(n log k) bound.
type Bounded[T any] struct {
	bound     int
	items     []Item[T]
	evictions uint64
}

// NewBounded returns a collector keeping the best b items. b must be >= 0;
// a collector with b == 0 rejects everything.
func NewBounded[T any](b int) *Bounded[T] {
	if b < 0 {
		b = 0
	}
	cap := b
	if cap > 1024 {
		cap = 1024 // avoid huge upfront allocations for large bounds
	}
	return &Bounded[T]{bound: b, items: make([]Item[T], 0, cap)}
}

// Reset empties the collector and gives it a new bound, keeping its
// storage: how pooled callers reuse one collector across problems. The
// zero Bounded is a collector of bound 0, ready for Reset.
func (h *Bounded[T]) Reset(b int) {
	if b < 0 {
		b = 0
	}
	h.bound, h.items, h.evictions = b, h.items[:0], 0
}

// Bound returns the maximum number of items retained.
func (h *Bounded[T]) Bound() int { return h.bound }

// Len reports the number of items currently retained.
func (h *Bounded[T]) Len() int { return len(h.items) }

// Push offers an item; it reports whether the item was retained (it may
// later be evicted by better items).
func (h *Bounded[T]) Push(value T, score float64, tie int64) bool {
	return h.PushItem(Item[T]{Value: value, Score: score, Tie: tie})
}

// PushItem offers a prebuilt item.
func (h *Bounded[T]) PushItem(it Item[T]) bool {
	if h.bound == 0 {
		return false
	}
	if len(h.items) < h.bound {
		h.items = append(h.items, it)
		h.up(len(h.items) - 1)
		return true
	}
	// Full: replace the root (worst retained) only if the new item is better.
	if !better(it, h.items[0]) {
		return false
	}
	h.items[0] = it
	h.down(0)
	h.evictions++
	return true
}

// Evictions reports how many retained items were displaced by better ones
// (full-heap replace-root pushes). It is a measure of how contended the
// heap was: a spec heap with many evictions saw far more useful candidates
// than its quota could hold. Serving surfaces the aggregate in /stats.
func (h *Bounded[T]) Evictions() uint64 { return h.evictions }

// Threshold returns the score a new item must beat to be retained: the
// worst retained score once the collector is full. Until then no score is
// excluded and Threshold reports (-Inf, false); a collector with bound 0
// retains nothing and reports (+Inf, true). This is the heap peek the
// MaxScore evaluator prunes against — an item scoring at most the
// threshold loses to every retained item (ties break toward earlier
// insertions, which in document-ordered evaluation have smaller tie keys).
func (h *Bounded[T]) Threshold() (float64, bool) {
	if h.bound == 0 {
		return math.Inf(1), true
	}
	if len(h.items) < h.bound {
		return math.Inf(-1), false
	}
	return h.items[0].Score, true
}

// Descending returns the retained items ordered best-first. The heap is
// left intact; the returned slice is freshly allocated.
func (h *Bounded[T]) Descending() []Item[T] {
	out := make([]Item[T], len(h.items))
	copy(out, h.items)
	slices.SortFunc(out, bestFirst[T])
	return out
}

// Drain empties the heap and returns the items ordered best-first.
func (h *Bounded[T]) Drain() []Item[T] {
	out := h.Descending()
	h.items = h.items[:0]
	return out
}

// DrainSorted is Drain without the copy: the items come back best-first
// in the collector's own storage, valid until the collector is pushed to
// or Reset again.
func (h *Bounded[T]) DrainSorted() []Item[T] {
	out := h.items
	slices.SortFunc(out, bestFirst[T])
	h.items = h.items[:0]
	return out
}

// min-heap order: the *worst* item (lowest score / highest tie) at the root,
// i.e. the root is the item every other retained item "betters".
func (h *Bounded[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !better(h.items[parent], h.items[i]) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *Bounded[T]) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && better(h.items[worst], h.items[l]) {
			worst = l
		}
		if r < n && better(h.items[worst], h.items[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h.items[i], h.items[worst] = h.items[worst], h.items[i]
		i = worst
	}
}
