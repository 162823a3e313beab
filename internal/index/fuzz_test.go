package index

import (
	"bytes"
	"strings"
	"testing"
)

// fuzzSeedStream builds a small valid v5 stream (block-compressed
// postings plus max-score and block-max tables) for the fuzzer to mutate.
func fuzzSeedStream(tb testing.TB, blockSize int) []byte {
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
	if x.Blocked() {
		if err := x.SetBlockMaxScores("DPH", x.ComputeBlockMaxScores(score)); err != nil {
			tb.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := SegmentIndex(x, 2).WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzSeedManifest builds a small valid RIDX6 manifest — two segments
// (one block-compressed with a max-score table, one flat) plus
// tombstones — for the fuzzer to mutate.
func fuzzSeedManifest(tb testing.TB) []byte {
	b := NewBuilder()
	b.SetBlockSize(-1)
	for _, d := range [][2]string{{"d4", "banana bread"}, {"d2", "apple watch"}} {
		if err := b.Add(d[0], strings.Fields(d[1])); err != nil {
			tb.Fatal(err)
		}
	}
	var base *Segmented
	if seg, err := ReadSegmented(bytes.NewReader(fuzzSeedStream(tb, 2))); err != nil {
		tb.Fatal(err)
	} else {
		base = seg
	}
	man := &Manifest{
		Epoch:      3,
		Segments:   []*Segmented{base, b.BuildSegmented(1)},
		Tombstones: []string{"d3"},
	}
	var buf bytes.Buffer
	if _, err := man.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzSeedMapped builds a small valid RIDX7 mapped-layout file image for
// the fuzzer to mutate.
func fuzzSeedMapped(tb testing.TB, payload func(int32) string) []byte {
	seg, err := ReadSegmented(bytes.NewReader(fuzzSeedStream(tb, 2)))
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := seg.WriteMapped(&buf, payload); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadIndex drives both codec entry points with arbitrary bytes: any
// input may be rejected with an error, but none may panic or hang —
// truncated or corrupt streams (including mangled RIDX5 block headers —
// hostile block counts and byte lengths — and mangled score tables) must
// degrade to ErrBadFormat-wrapped errors. CI runs this for a short fixed
// budget next to the deterministic corrupt-stream cases in the codec
// tests.
func FuzzReadIndex(f *testing.F) {
	valid := fuzzSeedStream(f, 2) // tiny blocks: boundaries everywhere
	f.Add(valid)
	f.Add(fuzzSeedStream(f, -1))  // flat transport (blockCap 0)
	f.Add(fuzzSeedStream(f, 128)) // default layout
	// Truncations at structurally interesting depths: inside the magic,
	// the block headers, the manifest, and the score tables.
	for _, cut := range []int{1, 4, 7, 9, len(valid) / 3, len(valid) / 2, len(valid) - 9, len(valid) - 1} {
		if cut > 0 && cut < len(valid) {
			f.Add(valid[:cut])
		}
	}
	// Legacy (now foreign) magics with junk bodies, and bare v5 headers.
	f.Add([]byte("RIDX1\n\xff\xff\xff\xff"))
	f.Add([]byte("RIDX4\n"))
	f.Add([]byte("RIDX4\n\x00\x00\x00\x00\x00"))
	f.Add([]byte("RIDX5\n"))
	f.Add([]byte("RIDX5\n\x00\x00\x00\x00\x00\x00"))
	// Hostile v5 block shapes: huge block count, huge byte length.
	f.Add([]byte("RIDX5\n\x02\x01\x01x\x01\x01\x01\x01a\x01\x01\xff\xff\xff\xff\x0f"))
	f.Add([]byte("RIDX5\n\x02\x01\x01x\x01\x01\x01\x01a\x01\x01\x01\x01\xff\xff\xff\xff\x0f"))
	// RIDX6 manifests: a valid two-segment manifest with tombstones, the
	// legacy lift of a bare v5 stream, and hostile segment/tombstone
	// counts (huge varints where the counts go).
	// RIDX7 mapped layouts: a valid file (with and without payloads), its
	// truncations at the header / section table / block region, a bare
	// header, and hostile section offsets. Read() parses v7 through the
	// same validator as OpenMapped, so heap fuzzing covers the mapped
	// open path's structural checks too.
	v7 := fuzzSeedMapped(f, nil)
	f.Add(v7)
	f.Add(fuzzSeedMapped(f, func(d int32) string { return strings.Repeat("x", int(d)+1) }))
	// With forward-index sections (16-entry table, flag bit 1), whole and
	// cut inside the forward offsets and arena.
	var fwd bytes.Buffer
	if _, err := SegmentIndex(buildForwardFixture(f, 2), 2).WriteMapped(&fwd, func(d int32) string { return forwardTexts[d] }); err != nil {
		f.Fatal(err)
	}
	f.Add(fwd.Bytes())
	for _, cut := range []int{v7HeaderSize + 16, fwd.Len() - 90, fwd.Len() - 30, fwd.Len() - 1} {
		f.Add(fwd.Bytes()[:cut])
	}
	for _, cut := range []int{7, 95, v7HeaderSize - 1, v7HeaderSize, v7HeaderSize + 64, len(v7) / 2, len(v7) - 1} {
		if cut > 0 && cut < len(v7) {
			f.Add(v7[:cut])
		}
	}
	f.Add([]byte(magicV7))
	f.Add(append([]byte(magicV7), make([]byte, v7HeaderSize)...)) // zeroed header
	hostile := append([]byte(nil), v7...)
	for i := 104; i < v7HeaderSize; i += 8 {
		hostile[i] = 0xff // section offsets/lengths far past EOF
	}
	f.Add(hostile)
	f.Add(fuzzSeedManifest(f))
	f.Add([]byte("RIDX6\n"))
	f.Add([]byte("RIDX6\n\x01\x00"))                                     // zero segments
	f.Add([]byte("RIDX6\n\x01\xff\xff\xff\xff\x0f"))                     // hostile segment count
	f.Add([]byte("RIDX6\n\x01\x01" + "RIDX5\n"))                         // truncated embedded segment
	f.Add(append(fuzzSeedManifest(f)[:8], 0xff, 0xff, 0xff, 0xff, 0x0f)) // mangled counts mid-header
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
				// cleanly on any bytes, and only ever yield dictionary terms.
				for d := int32(0); d < int32(x.NumDocs()); d++ {
					terms, ends, ok := fw.Doc(d, nil, nil)
					for _, id := range terms {
						if !ok || id < 0 || int(id) >= x.NumTerms() {
							t.Fatalf("doc %d: forward index yielded term %d (ok=%v) of %d", d, id, ok, x.NumTerms())
						}
					}
					if n := len(ends); n > 0 && int(ends[n-1]) != len(terms) {
						t.Fatalf("doc %d: fields end at %d of %d terms", d, ends[n-1], len(terms))
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
		if man, err := ReadManifest(bytes.NewReader(data)); err == nil {
			// An accepted manifest must uphold the invariants the engine's
			// live-state loader trusts: at least one segment, every segment
			// a usable index with an in-bounds shard partition.
			if len(man.Segments) == 0 {
				t.Fatal("accepted manifest with no segments")
			}
			for si, seg := range man.Segments {
				x := seg.Index()
				for id := int32(0); id < int32(x.NumTerms()); id++ {
					_ = x.PostingsByID(id)
				}
				for i := 0; i < seg.NumShards(); i++ {
					lo, hi := seg.Shard(i).DocRange()
					if lo > hi || int(hi) > x.NumDocs() {
						t.Fatalf("segment %d shard %d range [%d,%d) out of bounds", si, i, lo, hi)
					}
				}
			}
		}
	})
}
