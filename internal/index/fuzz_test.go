package index

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// fuzzSeedImage builds a small valid RIDX7 image (two shards, max-score
// and block-max tables, optional payloads) for the fuzzer to mutate.
func fuzzSeedImage(tb testing.TB, blockSize int, payload func(int32) string) []byte {
	b := NewBuilder()
	b.SetBlockSize(blockSize)
	docs := [][2]string{
		{"d1", "apple fruit pie apple"},
		{"d2", "apple mac os"},
		{"d3", "tank army leopard"},
	}
	for _, d := range docs {
		if err := b.Add(d[0], strings.Fields(d[1])); err != nil {
			tb.Fatal(err)
		}
	}
	x := b.Build()
	score := func(tf, docLen float64, _ TermStats, _ CollectionStats) float64 {
		return tf / (1 + docLen)
	}
	if err := x.SetMaxScores("DPH", x.ComputeMaxScores(score)); err != nil {
		tb.Fatal(err)
	}
	if err := x.SetBlockMaxScores("DPH", x.ComputeBlockMaxScores(score)); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := SegmentIndex(x, 2).WriteMapped(&buf, payload); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadIndex drives both reading entry points with arbitrary bytes:
// any input may be rejected with an error, but none may panic or hang —
// truncated or corrupt images (hostile section tables, term records,
// block headers, score tables, payload and forward offsets) and foreign
// magics must degrade to ErrBadFormat-wrapped errors. Read parses through
// the same validator as OpenMapped, so heap fuzzing covers the mapped
// open path's structural checks too. CI runs this for a short fixed
// budget next to the deterministic corrupt-image cases in the codec
// tests.
func FuzzReadIndex(f *testing.F) {
	valid := fuzzSeedImage(f, 2, nil) // tiny blocks: boundaries everywhere
	f.Add(valid)
	f.Add(fuzzSeedImage(f, 1, nil))
	f.Add(fuzzSeedImage(f, 128, nil)) // default layout
	// Truncations at structurally interesting depths: inside the magic,
	// the header, the section table, the sections and the padding.
	for _, cut := range []int{1, 4, 7, 9, len(valid) / 3, len(valid) / 2, len(valid) - 9, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	// Foreign magics — the varint streams of earlier builds — with junk
	// bodies.
	f.Add([]byte("RIDX1\n\xff\xff\xff\xff"))
	f.Add([]byte("RIDX4\n"))
	f.Add([]byte("RIDX4\n\x00\x00\x00\x00\x00"))
	f.Add([]byte("RIDX5\n"))
	f.Add([]byte("RIDX5\n\x02\x01\x01x\x01\x01\x01\x01a\x01\x01\xff\xff\xff\xff\x0f"))
	f.Add([]byte("RIDX6\n"))
	f.Add([]byte("RIDX6\n\x01\x01" + "RIDX5\n"))
	// With payload sections.
	f.Add(fuzzSeedImage(f, 2, func(d int32) string { return strings.Repeat("x", int(d)+1) }))
	// With forward-index sections (16-entry table, flag bits 1 and 2),
	// whole and cut inside the forward offsets and arena.
	var fwd bytes.Buffer
	if _, err := SegmentIndex(buildForwardFixture(f, 2), 2).WriteMapped(&fwd, func(d int32) string { return forwardTexts[d] }); err != nil {
		f.Fatal(err)
	}
	f.Add(fwd.Bytes())
	for _, cut := range []int{v7HeaderSize + 16, fwd.Len() - 90, fwd.Len() - 30, fwd.Len() - 1} {
		f.Add(fwd.Bytes()[:cut])
	}
	for _, cut := range []int{95, v7HeaderSize - 1, v7HeaderSize, v7HeaderSize + 64, v7PageAlign, v7PageAlign + 8, len(valid) - 200} {
		f.Add(valid[:cut])
	}
	f.Add([]byte(magicV7))
	f.Add(append([]byte(magicV7), make([]byte, v7HeaderSize)...)) // zeroed header
	// Targeted corruptions of a whole image.
	corrupt := func(mutate func(b []byte, sec func(i int) int)) {
		b := append([]byte(nil), valid...)
		mutate(b, func(i int) int { return int(binary.LittleEndian.Uint64(b[104+16*i:])) })
		f.Add(b)
	}
	corrupt(func(b []byte, _ func(int) int) { // section offsets/lengths far past EOF
		for i := 104; i < v7HeaderSize; i += 8 {
			b[i] = 0xff
		}
	})
	corrupt(func(b []byte, sec func(int) int) { binary.LittleEndian.PutUint64(b[sec(secShards):], 1<<40) })            // partition does not cover the docs
	corrupt(func(b []byte, sec func(int) int) { b[sec(secTermRecs)+24]++ })                                            // df lies
	corrupt(func(b []byte, sec func(int) int) { binary.LittleEndian.PutUint32(b[sec(secBlockHdrs)+8:], 0) })           // empty block
	corrupt(func(b []byte, sec func(int) int) { binary.LittleEndian.PutUint64(b[sec(secMaxTables)+16:], ^uint64(0)) }) // NaN bound
	corrupt(func(b []byte, sec func(int) int) { binary.LittleEndian.PutUint64(b[sec(secDocOffs)+8:], 1<<40) })         // doc ID past its blob
	corrupt(func(b []byte, _ func(int) int) { binary.LittleEndian.PutUint64(b[24:], MaxBlockSize+1) })                 // blockCap
	corrupt(func(b []byte, _ func(int) int) { binary.LittleEndian.PutUint64(b[64:], 0) })                              // no shards
	f.Fuzz(func(t *testing.T, data []byte) {
		if x, err := Read(bytes.NewReader(data)); err == nil {
			// Accepted streams must produce a usable index: exercise the
			// accessors the rest of the system leans on, including a full
			// iterator traversal of every (possibly block-compressed) list.
			for id := int32(0); id < int32(x.NumTerms()); id++ {
				_ = x.Term(id)
				_ = x.PostingsByID(id)
				it := x.PostingIter(id)
				n := 0
				for _, ok := it.Next(); ok; _, ok = it.Next() {
					n++
				}
				it.Release()
				if n != x.DF(id) {
					t.Fatalf("term %d: iterator yielded %d postings, DF %d", id, n, x.DF(id))
				}
			}
			if fw := x.Forward(); fw != nil {
				// The arena is never validated at open: decoding must end
				// cleanly on any bytes, and only ever yield dictionary
				// terms, ascending, each in a field below the count.
				for d := int32(0); d < int32(x.NumDocs()); d++ {
					terms, fields, nf, ok := fw.Doc(d, nil, nil)
					if !ok && (terms != nil || fields != nil || nf != 0) || len(terms) != len(fields) {
						t.Fatalf("doc %d: ok=%v with %d terms, %d fields, F %d", d, ok, len(terms), len(fields), nf)
					}
					for i, id := range terms {
						if id < 0 || int(id) >= x.NumTerms() || i > 0 && id < terms[i-1] {
							t.Fatalf("doc %d: forward index yielded term %d after %v, of %d", d, id, terms[:i], x.NumTerms())
						}
						if fields[i] < 0 || int(fields[i]) >= nf {
							t.Fatalf("doc %d: occurrence %d in field %d of %d", d, i, fields[i], nf)
						}
					}
				}
			}
			for _, key := range x.MaxScoreKeys() {
				if len(x.MaxScores(key)) != x.NumTerms() {
					t.Fatalf("table %q has %d entries for %d terms", key, len(x.MaxScores(key)), x.NumTerms())
				}
			}
			for _, key := range x.BlockMaxKeys() {
				if len(x.BlockMaxScores(key)) != x.NumBlocks() {
					t.Fatalf("block table %q has %d entries for %d blocks", key, len(x.BlockMaxScores(key)), x.NumBlocks())
				}
			}
		}
		if seg, err := ReadSegmented(bytes.NewReader(data)); err == nil {
			for i := 0; i < seg.NumShards(); i++ {
				lo, hi := seg.Shard(i).DocRange()
				if lo > hi || int(hi) > seg.Index().NumDocs() {
					t.Fatalf("shard %d range [%d,%d) out of bounds", i, lo, hi)
				}
			}
		}
	})
}
