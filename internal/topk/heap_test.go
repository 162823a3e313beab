package topk

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMaxHeapBasicOrder(t *testing.T) {
	var h Max[string]
	h.Push("b", 2, 0)
	h.Push("a", 1, 0)
	h.Push("d", 4, 0)
	h.Push("c", 3, 0)

	want := []string{"d", "c", "b", "a"}
	for i, w := range want {
		it, ok := h.Pop()
		if !ok {
			t.Fatalf("pop %d: heap unexpectedly empty", i)
		}
		if it.Value != w {
			t.Errorf("pop %d = %q, want %q", i, it.Value, w)
		}
	}
	if _, ok := h.Pop(); ok {
		t.Error("pop on empty heap reported ok")
	}
}

func TestMaxHeapPeek(t *testing.T) {
	var h Max[int]
	if _, ok := h.Peek(); ok {
		t.Fatal("peek on empty heap reported ok")
	}
	h.Push(7, 7, 0)
	h.Push(9, 9, 0)
	it, ok := h.Peek()
	if !ok || it.Value != 9 {
		t.Fatalf("peek = %v,%v want 9,true", it.Value, ok)
	}
	if h.Len() != 2 {
		t.Fatalf("peek mutated heap: len = %d", h.Len())
	}
}

func TestMaxHeapTieBreak(t *testing.T) {
	var h Max[string]
	h.Push("late", 1.0, 5)
	h.Push("early", 1.0, 1)
	h.Push("mid", 1.0, 3)

	want := []string{"early", "mid", "late"}
	for i, w := range want {
		it, _ := h.Pop()
		if it.Value != w {
			t.Errorf("pop %d = %q, want %q (tie-break must prefer lower tie)", i, it.Value, w)
		}
	}
}

func TestMaxHeapSortsRandomInput(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(200) + 1
		var h Max[int]
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = float64(rng.Intn(50)) // deliberately many ties
			h.Push(i, scores[i], int64(i))
		}
		prev, prevTie := 1e18, int64(-1)
		for h.Len() > 0 {
			it, _ := h.Pop()
			if it.Score > prev {
				t.Fatalf("trial %d: scores out of order: %f after %f", trial, it.Score, prev)
			}
			if it.Score == prev && it.Tie < prevTie {
				t.Fatalf("trial %d: tie order violated", trial)
			}
			prev, prevTie = it.Score, it.Tie
		}
	}
}

func TestBoundedKeepsBestB(t *testing.T) {
	h := NewBounded[int](3)
	for i, s := range []float64{5, 1, 9, 3, 7, 2, 8} {
		h.Push(i, s, int64(i))
	}
	got := h.Descending()
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	wantScores := []float64{9, 8, 7}
	for i, w := range wantScores {
		if got[i].Score != w {
			t.Errorf("got[%d].Score = %f, want %f", i, got[i].Score, w)
		}
	}
}

func TestBoundedZero(t *testing.T) {
	h := NewBounded[int](0)
	if h.Push(1, 1, 0) {
		t.Error("bound-0 heap retained an item")
	}
	if h.Len() != 0 {
		t.Errorf("len = %d, want 0", h.Len())
	}
}

func TestBoundedNegativeBoundTreatedAsZero(t *testing.T) {
	h := NewBounded[int](-4)
	if h.Bound() != 0 {
		t.Fatalf("Bound() = %d, want 0", h.Bound())
	}
	if h.Push(1, 1, 0) {
		t.Error("negative-bound heap retained an item")
	}
}

func TestBoundedRejectsWorseWhenFull(t *testing.T) {
	h := NewBounded[string](2)
	h.Push("a", 10, 0)
	h.Push("b", 20, 1)
	if h.Push("c", 5, 2) {
		t.Error("retained an item worse than the current worst")
	}
	if !h.Push("d", 15, 3) {
		t.Error("rejected an item better than the current worst")
	}
	got := h.Descending()
	if got[0].Value != "b" || got[1].Value != "d" {
		t.Errorf("retained %v, want [b d]", []string{got[0].Value, got[1].Value})
	}
}

func TestBoundedTieOnFullHeapPrefersEarlier(t *testing.T) {
	h := NewBounded[string](1)
	h.Push("first", 1.0, 1)
	if h.Push("second", 1.0, 2) {
		t.Error("equal score with later tie must not evict the earlier item")
	}
	if h.Push("zero", 1.0, 0) != true {
		t.Error("equal score with earlier tie should evict")
	}
	if it := h.Descending()[0]; it.Value != "zero" {
		t.Errorf("retained %q, want %q", it.Value, "zero")
	}
}

func TestBoundedDrainEmpties(t *testing.T) {
	h := NewBounded[int](5)
	for i := 0; i < 5; i++ {
		h.Push(i, float64(i), int64(i))
	}
	out := h.Drain()
	if len(out) != 5 || h.Len() != 0 {
		t.Fatalf("drain returned %d items, heap len %d", len(out), h.Len())
	}
	for i := 1; i < len(out); i++ {
		if out[i].Score > out[i-1].Score {
			t.Fatal("drain output not descending")
		}
	}
}

func TestSelectMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := rng.Intn(300)
		k := rng.Intn(50) + 1
		items := make([]Item[int], n)
		for i := range items {
			items[i] = Item[int]{Value: i, Score: rng.NormFloat64(), Tie: int64(i)}
		}
		h := NewBounded[int](k)
		for _, it := range items {
			h.PushItem(it)
		}
		got := h.Drain()

		sorted := make([]Item[int], n)
		copy(sorted, items)
		sort.Slice(sorted, func(i, j int) bool { return better(sorted[i], sorted[j]) })
		wantLen := k
		if n < k {
			wantLen = n
		}
		if len(got) != wantLen {
			t.Fatalf("trial %d: len = %d, want %d", trial, len(got), wantLen)
		}
		for i := 0; i < wantLen; i++ {
			if got[i].Value != sorted[i].Value {
				t.Fatalf("trial %d: got[%d] = %v, want %v", trial, i, got[i], sorted[i])
			}
		}
	}
}

// Property: a bounded heap always retains exactly the top-B of the pushed
// multiset, for any input.
func TestBoundedTopBProperty(t *testing.T) {
	prop := func(scores []float64, bRaw uint8) bool {
		b := int(bRaw%16) + 1
		h := NewBounded[int](b)
		items := make([]Item[int], len(scores))
		for i, s := range scores {
			items[i] = Item[int]{Value: i, Score: s, Tie: int64(i)}
			h.PushItem(items[i])
		}
		sort.Slice(items, func(i, j int) bool { return better(items[i], items[j]) })
		want := items
		if len(want) > b {
			want = want[:b]
		}
		got := h.Descending()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Value != want[i].Value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Max heap pops in non-increasing score order regardless of input.
func TestMaxHeapOrderProperty(t *testing.T) {
	prop := func(scores []float64) bool {
		var h Max[int]
		for i, s := range scores {
			h.Push(i, s, int64(i))
		}
		prev := math.Inf(1)
		for h.Len() > 0 {
			it, _ := h.Pop()
			if it.Score > prev {
				return false
			}
			prev = it.Score
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBoundedPush(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	scores := make([]float64, 100000)
	for i := range scores {
		scores[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := NewBounded[int](1000)
		for j, s := range scores {
			h.Push(j, s, int64(j))
		}
	}
}

// A reused collector behaves like a fresh one: Reset forgets the items,
// the bound and the eviction count, and DrainSorted yields Drain's order
// out of the collector's own storage.
func TestBoundedResetAndDrainSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var reused Bounded[int]
	var fill Max[int]
	for trial := 0; trial < 50; trial++ {
		b := rng.Intn(12)
		fresh := NewBounded[int](b)
		reused.Reset(b)
		for i, n := 0, rng.Intn(60); i < n; i++ {
			score := float64(rng.Intn(8)) // plenty of ties
			fresh.Push(i, score, int64(i))
			reused.Push(i, score, int64(i))
		}
		if reused.Evictions() != fresh.Evictions() || reused.Len() != fresh.Len() {
			t.Fatalf("trial %d: reused %d items/%d evictions, fresh %d/%d",
				trial, reused.Len(), reused.Evictions(), fresh.Len(), fresh.Evictions())
		}
		want, got := fresh.Drain(), reused.DrainSorted()
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d items, want %d", trial, len(got), len(want))
		}
		fill.Reset()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: item %d = %+v, want %+v", trial, i, got[i], want[i])
			}
			fill.PushItem(got[i])
		}
		if reused.Len() != 0 || fill.Len() != len(want) {
			t.Fatalf("trial %d: drained collector holds %d, refilled heap %d of %d", trial, reused.Len(), fill.Len(), len(want))
		}
	}
}

// Descending, Drain and DrainSorted share one comparator, so over inputs
// full of score ties (tie keys distinct, as every caller's are) they return
// the same items in the same order — and that order is the sort package's
// under better.
func TestBoundedOrdersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		b := 1 + rng.Intn(40)
		var hs [3]*Bounded[int]
		for i := range hs {
			hs[i] = NewBounded[int](b)
		}
		var all []Item[int]
		for i, n := 0, rng.Intn(120); i < n; i++ {
			it := Item[int]{Value: i, Score: float64(rng.Intn(5)), Tie: int64(n - i)}
			all = append(all, it)
			for _, h := range hs {
				h.PushItem(it)
			}
		}
		sort.SliceStable(all, func(i, j int) bool { return better(all[i], all[j]) })
		if len(all) > b {
			all = all[:b]
		}
		desc, drained, sorted := hs[0].Descending(), hs[1].Drain(), hs[2].DrainSorted()
		if hs[0].Len() != len(all) || hs[1].Len() != 0 || hs[2].Len() != 0 {
			t.Fatalf("trial %d: lengths after %d/%d/%d, want %d/0/0", trial, hs[0].Len(), hs[1].Len(), hs[2].Len(), len(all))
		}
		for name, got := range map[string][]Item[int]{"Descending": desc, "Drain": drained, "DrainSorted": sorted} {
			if len(got) != len(all) {
				t.Fatalf("trial %d: %s returned %d items, want %d", trial, name, len(got), len(all))
			}
			for i := range all {
				if got[i] != all[i] {
					t.Fatalf("trial %d: %s item %d = %+v, want %+v", trial, name, i, got[i], all[i])
				}
			}
		}
	}
}
