package index

// ScoreFunc is a weighting model's per-posting score: ranking.Model's
// TermScore, which the index takes as a function so that it need not know
// the models.
type ScoreFunc = func(tf, docLen float64, t TermStats, c CollectionStats) float64

// scoreTableBits sizes a ScoreTable: 512 slots of 16 bytes. One posting
// list of a synthetic or a web collection pairs a handful of term
// frequencies with a few hundred document lengths, so a table this size
// answers most of a long list's postings, stays inside the L1 cache next
// to the block being decoded, and costs a short list one 8 KB clear.
const scoreTableBits = 9

// ScoreTable remembers what a ScoreFunc returned for the (tf, docLen)
// pairs of ONE term under ONE set of collection statistics — a posting
// loop's scratch, so that a pair met again is not scored again. A model's
// score depends on the posting only through these two integers, and a long
// posting list repeats them constantly while a weighting model spends two
// logarithms on each (this is Lucene's per-term length-norm cache, made to
// serve any model). An entry is whatever the function returned for the same
// arguments, so every score keeps its bits. Direct-mapped: a pair that
// lands on an occupied slot replaces what was there.
//
// The zero value is an empty table. Reset it before moving to another term
// or other statistics. Not safe for concurrent use.
type ScoreTable struct {
	slots [1 << scoreTableBits]struct {
		key uint64 // tf in the high half, docLen in the low; 0 marks an empty slot
		val float64
	}
}

// Reset empties the table.
func (t *ScoreTable) Reset() { clear(t.slots[:]) }

// Score returns score(float64(tf), float64(docLen), ts, c), from the table
// when the pair was scored since the last Reset.
func (t *ScoreTable) Score(score ScoreFunc, tf, docLen int32, ts TermStats, c CollectionStats) float64 {
	if tf <= 0 {
		// No posting has such a frequency; scoring it directly is what
		// keeps key 0 free to mean "empty".
		return score(float64(tf), float64(docLen), ts, c)
	}
	key := uint64(uint32(tf))<<32 | uint64(uint32(docLen))
	s := &t.slots[key*0x9E3779B97F4A7C15>>(64-scoreTableBits)]
	if s.key == key {
		return s.val
	}
	v := score(float64(tf), float64(docLen), ts, c)
	s.key, s.val = key, v
	return v
}
