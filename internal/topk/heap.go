// Package topk provides bounded and unbounded score-ordered heaps used
// throughout the diversification pipeline: per-specialization candidate
// heaps in OptSelect (Algorithm 2 of the paper) and document accumulators
// in the retrieval engine.
//
// All heaps order items by float64 score with a deterministic tie-break on
// an int64 key (lower tie key wins among equal scores), so that algorithm
// output is reproducible across runs and platforms.
package topk

// Item is a scored payload stored in a heap.
type Item[T any] struct {
	Value T
	Score float64
	// Tie breaks equal scores deterministically: among items with the
	// same score, the one with the smaller Tie is considered better.
	Tie int64
}

// better reports whether a should be preferred over b in descending-score
// order (higher score first, then lower tie key).
func better[T any](a, b Item[T]) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Tie < b.Tie
}

// bestFirst is better as a three-way comparison: the order Descending,
// Drain and DrainSorted return items in.
func bestFirst[T any](a, b Item[T]) int {
	switch {
	case better(a, b):
		return -1
	case better(b, a):
		return 1
	}
	return 0
}

// Max is an unbounded max-heap: Pop returns the highest-scoring item.
// The zero value is ready to use.
type Max[T any] struct {
	items []Item[T]
}

// Len reports the number of items currently in the heap.
func (h *Max[T]) Len() int { return len(h.items) }

// Reset empties the heap, keeping its storage.
func (h *Max[T]) Reset() { h.items = h.items[:0] }

// Push inserts value with the given score and tie key.
func (h *Max[T]) Push(value T, score float64, tie int64) {
	h.items = append(h.items, Item[T]{Value: value, Score: score, Tie: tie})
	h.up(len(h.items) - 1)
}

// PushItem inserts a prebuilt item.
func (h *Max[T]) PushItem(it Item[T]) {
	h.items = append(h.items, it)
	h.up(len(h.items) - 1)
}

// Peek returns the best item without removing it.
func (h *Max[T]) Peek() (Item[T], bool) {
	if len(h.items) == 0 {
		var zero Item[T]
		return zero, false
	}
	return h.items[0], true
}

// Pop removes and returns the best (highest-scoring) item.
func (h *Max[T]) Pop() (Item[T], bool) {
	if len(h.items) == 0 {
		var zero Item[T]
		return zero, false
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	return top, true
}

func (h *Max[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !better(h.items[i], h.items[parent]) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *Max[T]) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && better(h.items[l], h.items[best]) {
			best = l
		}
		if r < n && better(h.items[r], h.items[best]) {
			best = r
		}
		if best == i {
			return
		}
		h.items[i], h.items[best] = h.items[best], h.items[i]
		i = best
	}
}
