package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// randomDocs draws numDocs token lists over a 25-word vocabulary: small
// enough that posting lists span many blocks.
func randomDocs(seed int64, numDocs int) [][]string {
	rng := rand.New(rand.NewSource(seed))
	vocab := make([]string, 25)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%02d", i)
	}
	docs := make([][]string, numDocs)
	for d := range docs {
		docs[d] = make([]string, rng.Intn(20)+1)
		for j := range docs[d] {
			docs[d][j] = vocab[rng.Intn(len(vocab))]
		}
	}
	return docs
}

// buildRandom builds randomDocs(seed, numDocs) at the given block size.
func buildRandom(t testing.TB, seed int64, numDocs, blockSize int) *Index {
	t.Helper()
	b := NewBuilder()
	b.SetBlockSize(blockSize)
	for d, toks := range randomDocs(seed, numDocs) {
		if err := b.Add(fmt.Sprintf("doc%04d", d), toks); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// TestBlockedMatchesFlat is the layout differential at the index level:
// at every block size the decoded postings must equal the flat []Posting
// lists counted straight from the documents, and the storage invariants
// must hold.
func TestBlockedMatchesFlat(t *testing.T) {
	flat := make(map[string][]Posting)
	for d, toks := range randomDocs(7, 300) {
		for _, tok := range toks {
			pl := flat[tok]
			if n := len(pl); n > 0 && pl[n-1].Doc == int32(d) {
				pl[n-1].TF++
			} else {
				flat[tok] = append(pl, Posting{Doc: int32(d), TF: 1})
			}
		}
	}
	for _, bs := range []int{1, 3, 8, 128, 1024} {
		blocked := buildRandom(t, 7, 300, bs)
		if blocked.BlockSize() != bs {
			t.Fatalf("bs=%d: BlockSize=%d", bs, blocked.BlockSize())
		}
		if blocked.NumTerms() != len(flat) {
			t.Fatalf("bs=%d: %d terms, want %d", bs, blocked.NumTerms(), len(flat))
		}
		for term, want := range flat {
			if got := blocked.Postings(term); !reflect.DeepEqual(got, want) {
				t.Fatalf("bs=%d term %q: postings %v, want %v", bs, term, got, want)
			}
		}
		st := blocked.Storage()
		if st.Postings == 0 || st.Blocks == 0 {
			t.Fatalf("bs=%d: storage stats empty: %+v", bs, st)
		}
		wantBlocks := int64(0)
		for id := int32(0); int(id) < blocked.NumTerms(); id++ {
			wantBlocks += int64((blocked.DF(id) + bs - 1) / bs)
		}
		if st.Blocks != wantBlocks || blocked.NumBlocks() != int(wantBlocks) {
			t.Fatalf("bs=%d: %d blocks, want %d", bs, st.Blocks, wantBlocks)
		}
	}
	// The default layout must compress: well under a []Posting struct's
	// 8 B/posting on this corpus (the acceptance bar is >= 2x).
	def := buildRandom(t, 7, 300, 0)
	if def.BlockSize() != DefaultBlockSize {
		t.Fatalf("default block size %d", def.BlockSize())
	}
	if bpp := def.Storage().BytesPerPosting; bpp > 4 {
		t.Errorf("default layout bytes/posting = %.2f, want <= 4 (2x vs 8)", bpp)
	}
}

// TestPostingIteratorTraversal checks Next/NextBlock against the
// materialized list across block sizes.
func TestPostingIteratorTraversal(t *testing.T) {
	for _, bs := range []int{1, 4, 128} {
		x := buildRandom(t, 11, 200, bs)
		for id := int32(0); int(id) < x.NumTerms(); id++ {
			want := x.PostingsByID(id)
			it := x.PostingIter(id)
			var got []Posting
			for p, ok := it.Next(); ok; p, ok = it.Next() {
				got = append(got, p)
			}
			it.Release()
			if len(got) != len(want) {
				t.Fatalf("bs=%d term %d: Next yielded %d postings, want %d", bs, id, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("bs=%d term %d posting %d: %+v != %+v", bs, id, i, got[i], want[i])
				}
			}
			it = x.PostingIter(id)
			got = got[:0]
			for blk := it.NextBlock(); blk != nil; blk = it.NextBlock() {
				got = append(got, blk...)
			}
			it.Release()
			if len(got) != len(want) {
				t.Fatalf("bs=%d term %d: NextBlock yielded %d postings, want %d", bs, id, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("bs=%d term %d block posting %d: %+v != %+v", bs, id, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPostingIteratorSeekGE drives monotone seek sequences against a
// linear-scan reference, across block sizes.
func TestPostingIteratorSeekGE(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, bs := range []int{1, 4, 128} {
		x := buildRandom(t, 17, 250, bs)
		for trial := 0; trial < 20; trial++ {
			id := int32(rng.Intn(x.NumTerms()))
			want := x.PostingsByID(id)
			it := x.PostingIter(id)
			d := int32(0)
			for d < int32(x.NumDocs()) {
				d += int32(rng.Intn(40))
				j := seekPostings(want, 0, d)
				p, ok := it.SeekGE(d)
				if j >= len(want) {
					if ok {
						t.Fatalf("bs=%d term %d SeekGE(%d) = %+v, want exhausted", bs, id, d, p)
					}
					break
				}
				if !ok || p != want[j] {
					t.Fatalf("bs=%d term %d SeekGE(%d) = %+v ok=%v, want %+v", bs, id, d, p, ok, want[j])
				}
				d = p.Doc + 1
			}
			it.Release()
		}
	}
}

// TestShardIterBlockBoundaries is the shard/block-boundary regression
// test: shard bounds that land mid-block must still produce exactly the
// flat sub-range — the doc-range search lands on block starts and clips
// decoded blocks, never slices into the byte stream.
func TestShardIterBlockBoundaries(t *testing.T) {
	for _, bs := range []int{1, 3, 7, 128} {
		x := buildRandom(t, 23, 150, bs)
		for _, n := range []int{1, 2, 3, 4, 9, 150} {
			seg := SegmentIndex(x, n)
			for id := int32(0); int(id) < x.NumTerms(); id++ {
				global := x.PostingsByID(id)
				var merged []Posting
				for si := 0; si < seg.NumShards(); si++ {
					sh := seg.Shard(si)
					lo, hi := sh.DocRange()
					// Iterator view.
					it := sh.Iter(id)
					var viaIter []Posting
					for blk := it.NextBlock(); blk != nil; blk = it.NextBlock() {
						viaIter = append(viaIter, blk...)
					}
					it.Release()
					// Materialized view must agree.
					viaSlice := sh.Postings(id)
					if len(viaIter) != len(viaSlice) {
						t.Fatalf("bs=%d n=%d shard %d term %d: iter %d postings, slice %d",
							bs, n, si, id, len(viaIter), len(viaSlice))
					}
					for j := range viaIter {
						if viaIter[j] != viaSlice[j] {
							t.Fatalf("bs=%d n=%d shard %d term %d posting %d: %+v != %+v",
								bs, n, si, id, j, viaIter[j], viaSlice[j])
						}
						if viaIter[j].Doc < lo || viaIter[j].Doc >= hi {
							t.Fatalf("bs=%d n=%d shard %d term %d: doc %d outside [%d,%d)",
								bs, n, si, id, viaIter[j].Doc, lo, hi)
						}
					}
					merged = append(merged, viaIter...)
				}
				if len(merged) != len(global) {
					t.Fatalf("bs=%d n=%d term %d: shards carry %d postings, global %d",
						bs, n, id, len(merged), len(global))
				}
				for j := range merged {
					if merged[j] != global[j] {
						t.Fatalf("bs=%d n=%d term %d posting %d: %+v != %+v",
							bs, n, id, j, merged[j], global[j])
					}
				}
			}
		}
	}
}

// TestBlockMaxDominatesBlocks pins the block-max bound property: every
// posting's score is at most its block's table entry, and the per-term
// maximum equals the max over the term's block entries.
func TestBlockMaxDominatesBlocks(t *testing.T) {
	x := buildRandom(t, 31, 220, 8)
	score := func(tf, docLen float64, _ TermStats, _ CollectionStats) float64 {
		return tf / (1 + docLen)
	}
	bm := x.ComputeBlockMaxScores(score)
	if err := x.SetBlockMaxScores("S", bm); err != nil {
		t.Fatal(err)
	}
	terms := x.ComputeMaxScores(score)
	c := x.Stats()
	for id := int32(0); int(id) < x.NumTerms(); id++ {
		tb := x.TermBlockMax("S", id)
		if tb == nil {
			t.Fatalf("term %d: no block-max slice", id)
		}
		ts := TermStats{ID: id, DF: int64(x.DF(id)), CF: 0}
		it := x.PostingIter(id)
		bi, seen := 0, 0
		blkMax := 0.0
		for p, ok := it.Next(); ok; p, ok = it.Next() {
			if seen == 8 {
				if blkMax != tb[bi] {
					t.Fatalf("term %d block %d: recomputed max %v != table %v", id, bi, blkMax, tb[bi])
				}
				bi++
				seen, blkMax = 0, 0
			}
			if s := score(float64(p.TF), float64(x.DocLen(p.Doc)), ts, c); s > blkMax {
				blkMax = s
			}
			seen++
		}
		it.Release()
		if seen > 0 && blkMax != tb[bi] {
			t.Fatalf("term %d final block: recomputed max %v != table %v", id, bi, blkMax)
		}
		termMax := 0.0
		for _, v := range tb {
			if v > termMax {
				termMax = v
			}
		}
		if termMax != terms[id] {
			t.Fatalf("term %d: max over blocks %v != per-term table %v", id, termMax, terms[id])
		}
	}
}

// TestBlockUpperBoundSkipsWithoutDecode checks the header-guided bound:
// it must be a true upper bound for the landing region and report
// exhaustion exactly when no posting >= d remains.
func TestBlockUpperBoundSkipsWithoutDecode(t *testing.T) {
	x := buildRandom(t, 37, 200, 4)
	score := func(tf, docLen float64, _ TermStats, _ CollectionStats) float64 {
		return tf / (1 + docLen)
	}
	bm := x.ComputeBlockMaxScores(score)
	if err := x.SetBlockMaxScores("S", bm); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	c := x.Stats()
	for trial := 0; trial < 40; trial++ {
		id := int32(rng.Intn(x.NumTerms()))
		it := x.PostingIter(id)
		it.SetBlockMax(x.TermBlockMax("S", id))
		want := x.PostingsByID(id)
		d := int32(rng.Intn(x.NumDocs() + 5))
		ub, any := it.BlockUpperBound(d)
		j := seekPostings(want, 0, d)
		if (j < len(want)) != any {
			t.Fatalf("term %d BlockUpperBound(%d): any=%v, reference %v", id, d, any, j < len(want))
		}
		if any {
			p, ok := it.SeekGE(d)
			if !ok || p != want[j] {
				t.Fatalf("term %d SeekGE(%d) after bound = %+v ok=%v, want %+v", id, d, p, ok, want[j])
			}
			if p.Doc == d {
				ts := TermStats{ID: id, DF: int64(len(want)), CF: 0}
				if s := score(float64(p.TF), float64(x.DocLen(p.Doc)), ts, c); s > ub {
					t.Fatalf("term %d doc %d: score %v exceeds block bound %v", id, d, s, ub)
				}
			}
		}
		it.Release()
	}
	// Without a table the bound degrades to +Inf, never blocking probes.
	it := x.PostingIter(0)
	if ub, any := it.BlockUpperBound(0); !any || !math.IsInf(ub, 1) {
		t.Errorf("tableless BlockUpperBound = %v, %v; want +Inf, true", ub, any)
	}
	it.Release()
}

// TestCodecRoundTripBlocked round-trips several block sizes, with
// max-score and block-max tables, through the image, checking the layout
// and the tables survive byte for byte.
func TestCodecRoundTripBlocked(t *testing.T) {
	score := func(tf, docLen float64, _ TermStats, _ CollectionStats) float64 {
		return tf / (1 + docLen)
	}
	for _, bs := range []int{1, 8, 128} {
		x := buildRandom(t, 41, 180, bs)
		if err := x.SetMaxScores("S", x.ComputeMaxScores(score)); err != nil {
			t.Fatal(err)
		}
		if err := x.SetBlockMaxScores("S", x.ComputeBlockMaxScores(score)); err != nil {
			t.Fatal(err)
		}
		got, err := ReadSegmented(bytes.NewReader(imageOf(t, SegmentIndex(x, 3), nil)))
		if err != nil {
			t.Fatalf("bs=%d: %v", bs, err)
		}
		y := got.Index()
		if y.BlockSize() != x.BlockSize() || y.NumBlocks() != x.NumBlocks() {
			t.Fatalf("bs=%d: layout did not round-trip: size %d/%d blocks %d/%d",
				bs, y.BlockSize(), x.BlockSize(), y.NumBlocks(), x.NumBlocks())
		}
		if !indexesEqual(x, y) {
			t.Fatalf("bs=%d: content did not round-trip", bs)
		}
		for _, tables := range [][2][]float64{
			{x.MaxScores("S"), y.MaxScores("S")},
			{x.BlockMaxScores("S"), y.BlockMaxScores("S")},
		} {
			want, have := tables[0], tables[1]
			if len(have) != len(want) {
				t.Fatalf("bs=%d: table of %d entries, want %d", bs, len(have), len(want))
			}
			for i := range want {
				if want[i] != have[i] {
					t.Fatalf("bs=%d: table entry %d %v != %v", bs, i, have[i], want[i])
				}
			}
		}
	}
}

// TestCorruptBlockStreamsRejected hand-corrupts an image with tiny
// blocks: every truncation must error, every single-byte flip must error
// or leave an index whose traversal stays in range — never panic — and a
// hostile block count must error.
func TestCorruptBlockStreamsRejected(t *testing.T) {
	b := NewBuilder()
	b.SetBlockSize(2)
	for _, d := range []struct{ id, toks string }{
		{"d1", "aa bb aa"}, {"d2", "aa cc"}, {"d3", "aa bb"}, {"d4", "aa"},
	} {
		if err := b.Add(d.id, strings.Fields(d.toks)); err != nil {
			t.Fatal(err)
		}
	}
	x := b.Build()
	full := imageOf(t, SegmentIndex(x, 1), nil)
	if _, err := Read(bytes.NewReader(full)); err != nil {
		t.Fatalf("pristine image rejected: %v", err)
	}
	for cut := 0; cut < len(full); cut++ {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("image truncated to %d bytes accepted", cut)
		}
	}
	for i := range full {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0xff
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("byte %d flipped: reader panicked: %v", i, r)
				}
			}()
			y, err := Read(bytes.NewReader(mut))
			if err != nil {
				return
			}
			for id := int32(0); int(id) < y.NumTerms(); id++ {
				for _, p := range y.PostingsByID(id) {
					if p.Doc < 0 || int(p.Doc) >= y.NumDocs() {
						t.Fatalf("byte %d flipped: term %d served doc %d", i, id, p.Doc)
					}
				}
			}
		}()
	}
	// Hostile block count: the first term claims 2^31 blocks.
	hostile := append([]byte(nil), full...)
	recs := binary.LittleEndian.Uint64(hostile[104+16*secTermRecs:])
	binary.LittleEndian.PutUint32(hostile[recs+20:], 1<<31)
	if _, err := Read(bytes.NewReader(hostile)); err == nil {
		t.Error("hostile block count accepted")
	}
}
