package ranking

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/index"
)

var tableModels = []Model{DPH{}, BM25{}, TFIDF{}, LMDirichlet{}}

// tableStats are term and collection statistics of a plausible shape; a
// score table serves one such pair between Resets.
func tableStats(rng *rand.Rand) (index.TermStats, index.CollectionStats) {
	docs := int64(1 + rng.Intn(50000))
	df := 1 + rng.Int63n(docs)
	tokens := docs * int64(1+rng.Intn(300))
	return index.TermStats{ID: int32(rng.Intn(1000)), DF: df, CF: df + rng.Int63n(1+4*df)},
		index.CollectionStats{NumDocs: docs, TotalTokens: tokens, AvgDocLen: float64(tokens) / float64(docs)}
}

// sameScore asks the table and the model for one pair and fails unless the
// two answers have the same bits.
func sameScore(t testing.TB, tab *index.ScoreTable, m Model, tf, docLen int32, ts index.TermStats, cs index.CollectionStats) {
	t.Helper()
	want := m.TermScore(float64(tf), float64(docLen), ts, cs)
	if got := tab.Score(m.TermScore, tf, docLen, ts, cs); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: table says %v (%#x) for tf=%d docLen=%d, TermScore %v (%#x)",
			m.Name(), got, math.Float64bits(got), tf, docLen, want, math.Float64bits(want))
	}
}

// edgePairs are the (tf, docLen) pairs a posting never has and a table
// must survive all the same: zeros, negatives, the one-term document, and
// the ends of int32 — among them the pair whose key would be 0, the empty
// slot's mark.
var edgePairs = [][2]int32{
	{0, 0}, {0, 7}, {1, 0}, {1, 1}, {5, 5}, {6, 5}, {-1, 10}, {3, -4}, {-2, -2},
	{math.MaxInt32, math.MaxInt32}, {math.MaxInt32, 1}, {1, math.MaxInt32},
	{math.MinInt32, math.MinInt32}, {math.MinInt32, 0}, {1, math.MinInt32},
}

// TestScoreTableMatchesTermScore: whatever the stream — a posting list's
// few distinct pairs met over and over, a wide one that keeps evicting
// slots, the edge pairs, a new term after a Reset — the table returns the
// bits the model returns, and on the repetitive stream it asks the model
// less often than it is asked itself.
func TestScoreTableMatchesTermScore(t *testing.T) {
	for _, m := range tableModels {
		rng := rand.New(rand.NewSource(97))
		tab := new(index.ScoreTable)
		for round := 0; round < 20; round++ {
			ts, cs := tableStats(rng)
			tab.Reset()
			// A posting list: tf in 1..6, lengths within a few hundred of
			// each other.
			base := int32(20 + rng.Intn(2000))
			for i := 0; i < 4000; i++ {
				sameScore(t, tab, m, 1+int32(rng.Intn(6)), base+int32(rng.Intn(300)), ts, cs)
			}
			// Many more distinct pairs than slots: every slot is refilled.
			for i := 0; i < 4000; i++ {
				sameScore(t, tab, m, int32(rng.Intn(1<<12)), int32(rng.Intn(1<<20)), ts, cs)
			}
			for _, p := range edgePairs {
				sameScore(t, tab, m, p[0], p[1], ts, cs)
				sameScore(t, tab, m, p[0], p[1], ts, cs) // now from the slot, where it has one
			}
		}

		calls, asked := 0, 0
		counted := func(tf, docLen float64, ts index.TermStats, cs index.CollectionStats) float64 {
			calls++
			return m.TermScore(tf, docLen, ts, cs)
		}
		ts, cs := tableStats(rng)
		tab.Reset()
		for ; asked < 5000; asked++ {
			tf, docLen := 1+int32(rng.Intn(4)), 100+int32(rng.Intn(50))
			if got, want := tab.Score(counted, tf, docLen, ts, cs), m.TermScore(float64(tf), float64(docLen), ts, cs); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: counted table says %v, TermScore %v", m.Name(), got, want)
			}
		}
		// 200 distinct pairs; a direct-mapped table may score a few twice.
		if calls < 200/2 || calls > 2*200 {
			t.Errorf("%s: %d model calls for %d lookups over 200 distinct pairs", m.Name(), calls, asked)
		}
	}
}

// FuzzScoreTable drives one table with a byte-coded stream — pairs from a
// narrow range (hits), from the whole of int32 (collisions and refills),
// Resets onto new statistics — under all four models.
func FuzzScoreTable(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 0, 0, 1, 1, 255, 254, 7, 7, 7})
	f.Add(int64(2), []byte{255, 255, 255, 255, 0, 0, 0, 0, 128, 128})
	f.Add(int64(3), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, stream []byte) {
		rng := rand.New(rand.NewSource(seed))
		for _, m := range tableModels {
			tab := new(index.ScoreTable)
			ts, cs := tableStats(rng)
			for i, b := range stream {
				switch {
				case b == 255:
					ts, cs = tableStats(rng)
					tab.Reset()
				case b >= 192:
					p := edgePairs[(int(b)+i)%len(edgePairs)]
					sameScore(t, tab, m, p[0], p[1], ts, cs)
				case b >= 128:
					sameScore(t, tab, m, int32(rng.Uint32()), int32(rng.Uint32()), ts, cs)
				default:
					sameScore(t, tab, m, 1+int32(b&7), 50+int32(b>>3)+int32(i%3), ts, cs)
				}
			}
		}
	})
}

// countingModel is DPH that counts its TermScore calls. Not safe for
// concurrent use, which single-shard retrieval does not need.
type countingModel struct {
	DPH
	calls *int
}

func (c countingModel) TermScore(tf, docLen float64, ts index.TermStats, cs index.CollectionStats) float64 {
	*c.calls++
	return c.DPH.TermScore(tf, docLen, ts, cs)
}

// TestScoreTableHitsOnRetrieval: the table is not only exact but in use —
// over a corpus whose lists repeat (tf, docLen) pairs, both posting loops
// return the reference's hits while calling the model for fewer postings
// than they score.
func TestScoreTableHitsOnRetrieval(t *testing.T) {
	idx := randomCorpusIndex(t, 211, 600)
	installTables(t, idx)
	seg := index.SegmentIndex(idx, 1)
	for _, q := range [][]string{{"v03"}, {"v01", "v17", "v17", "v30"}} {
		postings := 0
		for _, term := range q {
			if ts, ok := idx.Lookup(term); ok {
				postings += int(ts.DF)
			}
		}
		want := retrieveReference(idx, DPH{}, q, 0)
		for _, prune := range []bool{false, true} {
			k := 0
			if prune {
				k = len(want) // a heap that never fills prunes nothing: every posting is scored
			}
			calls := 0
			got, err := retrieveOne(context.Background(), seg, countingModel{calls: &calls}, q, k, BatchOptions{Prune: prune})
			if err != nil {
				t.Fatal(err)
			}
			if !hitsBitIdentical(got, want) {
				t.Fatalf("q=%v prune=%v: hits differ from the reference", q, prune)
			}
			if calls == 0 || calls >= postings {
				t.Errorf("q=%v prune=%v: %d model calls for %d postings scored; the table never hit", q, prune, calls, postings)
			}
		}
		calls := 0
		if got := Retrieve(idx, countingModel{calls: &calls}, q, 0); !hitsBitIdentical(got, want) || calls == 0 || calls >= postings {
			t.Errorf("Retrieve q=%v: identical=%v, %d model calls for %d postings", q, hitsBitIdentical(got, want), calls, postings)
		}
	}
}

// TestMaxScoreTablesUnchangedByScoreTable: the build-time tables are
// computed through a score table too, and must be the exact float maxima a
// direct pass over the postings finds — an index written before the table
// existed and one written after are the same bytes.
func TestMaxScoreTablesUnchangedByScoreTable(t *testing.T) {
	for _, idx := range []*index.Index{randomCorpusIndex(t, 223, 500), corpusIndex(t, 223, 500, 8)} {
		cs := idx.Stats()
		for _, m := range PrecomputableModels() {
			perTerm := idx.ComputeMaxScores(m.TermScore)
			perBlock := idx.ComputeBlockMaxScores(m.TermScore)
			block := 0
			for id := 0; id < idx.NumTerms(); id++ {
				ts, ok := idx.Lookup(idx.Term(int32(id)))
				if !ok {
					t.Fatalf("term %d not found by name", id)
				}
				termMax := 0.0
				it := idx.PostingIter(int32(id))
				for blk := it.NextBlock(); blk != nil; blk = it.NextBlock() {
					blockMax := 0.0
					for _, p := range blk {
						blockMax = math.Max(blockMax, m.TermScore(float64(p.TF), float64(idx.DocLen(p.Doc)), ts, cs))
					}
					if math.Float64bits(perBlock[block]) != math.Float64bits(blockMax) {
						t.Fatalf("%s term %d block %d: table %v, direct %v", m.Name(), id, block, perBlock[block], blockMax)
					}
					block++
					termMax = math.Max(termMax, blockMax)
				}
				it.Release()
				if math.Float64bits(perTerm[id]) != math.Float64bits(termMax) {
					t.Fatalf("%s term %d: table %v, direct %v", m.Name(), id, perTerm[id], termMax)
				}
			}
			if block != len(perBlock) {
				t.Fatalf("%s: walked %d blocks, table has %d", m.Name(), block, len(perBlock))
			}
		}
	}
}
