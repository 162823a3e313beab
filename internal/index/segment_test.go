package index

import (
	"strings"
	"testing"
)

func TestSegmentIndexBounds(t *testing.T) {
	x := buildSmall(t)
	for _, n := range []int{1, 2, 3, 4, 9, 0, -1} {
		seg := SegmentIndex(x, n)
		want := n
		if want < 1 {
			want = 1
		}
		if want > x.NumDocs() {
			want = x.NumDocs()
		}
		if seg.NumShards() != want {
			t.Fatalf("n=%d: NumShards = %d, want %d", n, seg.NumShards(), want)
		}
		covered := 0
		var prevHi int32
		for i := 0; i < seg.NumShards(); i++ {
			lo, hi := seg.Shard(i).DocRange()
			if lo != prevHi || hi < lo {
				t.Fatalf("n=%d: shard %d range [%d,%d) not contiguous after %d", n, i, lo, hi, prevHi)
			}
			if seg.Shard(i).NumDocs() == 0 {
				t.Errorf("n=%d: shard %d empty over non-empty collection", n, i)
			}
			covered += seg.Shard(i).NumDocs()
			prevHi = hi
		}
		if covered != x.NumDocs() {
			t.Errorf("n=%d: shards cover %d docs, want %d", n, covered, x.NumDocs())
		}
	}
}

func TestSegmentIndexEmpty(t *testing.T) {
	seg := SegmentIndex(NewBuilder().Build(), 4)
	if seg.NumShards() != 1 || seg.Shard(0).NumDocs() != 0 {
		t.Fatalf("empty index: %d shards, shard 0 has %d docs", seg.NumShards(), seg.Shard(0).NumDocs())
	}
}

// TestShardPostingsPartition checks the core shard-view invariant: for
// every term, concatenating the per-shard posting sub-slices in shard
// order reproduces the global posting list exactly.
func TestShardPostingsPartition(t *testing.T) {
	x := buildSmall(t)
	for _, n := range []int{1, 2, 3, 4} {
		seg := SegmentIndex(x, n)
		for id := int32(0); int(id) < x.NumTerms(); id++ {
			var merged []Posting
			for i := 0; i < seg.NumShards(); i++ {
				sh := seg.Shard(i)
				lo, hi := sh.DocRange()
				for _, p := range sh.Postings(id) {
					if p.Doc < lo || p.Doc >= hi {
						t.Fatalf("n=%d term %d: posting doc %d outside shard [%d,%d)", n, id, p.Doc, lo, hi)
					}
				}
				merged = append(merged, sh.Postings(id)...)
			}
			global := x.PostingsByID(id)
			if len(merged) != len(global) {
				t.Fatalf("n=%d term %q: %d shard postings, %d global", n, x.Term(id), len(merged), len(global))
			}
			for j := range merged {
				if merged[j] != global[j] {
					t.Fatalf("n=%d term %q: posting %d = %v, want %v", n, x.Term(id), j, merged[j], global[j])
				}
			}
		}
	}
}

func TestBuildSegmented(t *testing.T) {
	b := NewBuilder()
	for _, d := range []struct{ id, toks string }{
		{"a", "x y"}, {"b", "y z"}, {"c", "z x"},
	} {
		if err := addDoc(b, d.id, strings.Fields(d.toks)); err != nil {
			t.Fatal(err)
		}
	}
	seg := b.BuildSegmented(2)
	if seg.NumShards() != 2 || seg.Index().NumDocs() != 3 {
		t.Fatalf("BuildSegmented: %d shards over %d docs", seg.NumShards(), seg.Index().NumDocs())
	}
	sizes := seg.ShardSizes()
	if sizes[0]+sizes[1] != 3 {
		t.Errorf("ShardSizes = %v", sizes)
	}
}

func TestResegment(t *testing.T) {
	x := buildSmall(t)
	seg := SegmentIndex(x, 1).Resegment(4)
	if seg.NumShards() != 4 {
		t.Fatalf("Resegment(4): %d shards", seg.NumShards())
	}
	if seg.Index() != x {
		t.Error("Resegment must share the physical index")
	}
}
