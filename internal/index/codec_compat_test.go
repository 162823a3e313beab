package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sort"
	"testing"
)

// TestLegacyMagicsRejected: the varint streams that came before RIDX7 —
// the flat-posting RIDX1–RIDX4, the blocked RIDX5 and the RIDX6 manifest
// of RIDX5 streams — are foreign formats now. Every reading entry point
// answers ErrBadFormat from the magic alone, whatever follows it.
func TestLegacyMagicsRejected(t *testing.T) {
	img := imageOf(t, SegmentIndex(buildSmall(t), 1), nil)
	for _, magic := range []string{"RIDX1\n", "RIDX2\n", "RIDX3\n", "RIDX4\n", "RIDX5\n", "RIDX6\n"} {
		stream := append([]byte(magic), img[len(magicV7):]...)
		if _, err := Read(bytes.NewReader(stream)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%q: Read = %v, want ErrBadFormat", magic, err)
		}
		if _, err := ReadSegmented(bytes.NewReader(stream)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%q: ReadSegmented = %v, want ErrBadFormat", magic, err)
		}
	}
}

// TestWriteToEmitsV5 keeps the name it had when the index writer emitted
// RIDX5. Both writers that remain stamp RIDX7 and nothing else:
// WriteMapped writes the bare image, and WriteMappedFramed writes the same
// bytes behind their uvarint length. Each reports the bytes it wrote.
func TestWriteToEmitsV5(t *testing.T) {
	seg := SegmentIndex(buildSmall(t), 2)
	var bare bytes.Buffer
	n, err := seg.WriteMapped(&bare, nil)
	if err != nil {
		t.Fatal(err)
	}
	img := bare.Bytes()
	if n != int64(len(img)) {
		t.Errorf("WriteMapped reported %d bytes, wrote %d", n, len(img))
	}
	if !bytes.HasPrefix(img, []byte(magicV7+"\x00\x00")) {
		t.Fatalf("image starts with %q, want %q", img[:8], magicV7+"\x00\x00")
	}
	if bytes.HasPrefix(img, []byte("RIDX5\n")) {
		t.Fatal("writer emitted the retired RIDX5 magic")
	}

	var framed bytes.Buffer
	n, err = seg.WriteMappedFramed(&framed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(framed.Len()) {
		t.Errorf("WriteMappedFramed reported %d bytes, wrote %d", n, framed.Len())
	}
	size, k := binary.Uvarint(framed.Bytes())
	if k <= 0 || size != uint64(len(img)) {
		t.Fatalf("frame length %d (varint %d bytes), want %d", size, k, len(img))
	}
	if !bytes.Equal(framed.Bytes()[k:], img) {
		t.Fatal("framed image differs from the bare image")
	}
}

// TestManifestLegacyReadCompat keeps the name it had when ReadManifest
// lifted a bare single-segment stream into a one-segment manifest. The
// manifest is gone (RIDX6 is rejected, TestLegacyMagicsRejected); what
// remains of the lift is that a segment image read back — bare, or cut
// out of the frame an engine epoch file embeds it in — is that one
// segment with its shard partition, through both readers.
func TestManifestLegacyReadCompat(t *testing.T) {
	x := buildSmall(t)
	seg := SegmentIndex(x, 2)
	var framed bytes.Buffer
	if _, err := seg.WriteMappedFramed(&framed, nil); err != nil {
		t.Fatal(err)
	}
	size, k := binary.Uvarint(framed.Bytes())
	if k <= 0 || uint64(framed.Len()-k) != size {
		t.Fatalf("bad frame: length %d (varint %d bytes) over %d bytes", size, k, framed.Len())
	}
	for name, img := range map[string][]byte{
		"bare":   imageOf(t, seg, nil),
		"framed": framed.Bytes()[k:],
	} {
		got, err := ReadSegmented(bytes.NewReader(img))
		if err != nil {
			t.Fatalf("%s: ReadSegmented: %v", name, err)
		}
		if got.NumShards() != 2 {
			t.Errorf("%s: shard partition lost: %d shards", name, got.NumShards())
		}
		if !indexesEqual(x, got.Index()) {
			t.Errorf("%s: ReadSegmented index differs from source", name)
		}
		flat, err := Read(bytes.NewReader(img))
		if err != nil {
			t.Fatalf("%s: Read: %v", name, err)
		}
		if !indexesEqual(x, flat) {
			t.Errorf("%s: Read index differs from source", name)
		}
	}
}

// TestMaxScoreTablesRoundTrip writes an index carrying max-score tables
// and checks keys and values survive the round trip bit for bit, at
// several shard counts.
func TestMaxScoreTablesRoundTrip(t *testing.T) {
	x := buildSmall(t)
	tfTable := x.ComputeMaxScores(func(tf, docLen float64, _ TermStats, _ CollectionStats) float64 {
		return tf / (1 + docLen)
	})
	if err := x.SetMaxScores("TF", tfTable); err != nil {
		t.Fatal(err)
	}
	constTable := make([]float64, x.NumTerms())
	for i := range constTable {
		constTable[i] = 0.5 * float64(i)
	}
	if err := x.SetMaxScores("CONST", constTable); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3} {
		got, err := ReadSegmented(bytes.NewReader(imageOf(t, SegmentIndex(x, shards), nil)))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if keys := got.Index().MaxScoreKeys(); len(keys) != 2 || keys[0] != "CONST" || keys[1] != "TF" {
			t.Fatalf("shards=%d: keys = %v", shards, keys)
		}
		for key, want := range map[string][]float64{"TF": tfTable, "CONST": constTable} {
			gotTable := got.Index().MaxScores(key)
			if len(gotTable) != len(want) {
				t.Fatalf("shards=%d %q: %d entries, want %d", shards, key, len(gotTable), len(want))
			}
			for i := range want {
				if gotTable[i] != want[i] {
					t.Errorf("shards=%d %q[%d] = %v, want %v", shards, key, i, gotTable[i], want[i])
				}
			}
		}
	}
}

// TestCorruptMaxScoreBlocksRejected feeds a valid image with its score-
// table region truncated or corrupted: every variant must error, never
// panic.
func TestCorruptMaxScoreBlocksRejected(t *testing.T) {
	x := buildSmall(t)
	table := make([]float64, x.NumTerms())
	for i := range table {
		table[i] = float64(i) + 0.25
	}
	if err := x.SetMaxScores("T", table); err != nil {
		t.Fatal(err)
	}
	full := imageOf(t, SegmentIndex(x, 1), nil)
	if _, err := Read(bytes.NewReader(full)); err != nil {
		t.Fatalf("pristine image rejected: %v", err)
	}
	// The region: key length, "T" padded to 8, the float64 entries.
	at := int(binary.LittleEndian.Uint64(full[104+16*secMaxTables:]))
	end := at + 8 + 8 + 8*x.NumTerms()
	for cut := at; cut < end; cut++ {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("image cut to %d bytes, inside the max-score table, accepted", cut)
		}
	}
	// A NaN entry violates the finite-nonnegative contract.
	nan := append([]byte(nil), full...)
	for i := end - 8; i < end; i++ {
		nan[i] = 0xff
	}
	if _, err := Read(bytes.NewReader(nan)); err == nil {
		t.Error("NaN max-score entry accepted")
	}
	// A key length that overruns the region.
	long := append([]byte(nil), full...)
	binary.LittleEndian.PutUint64(long[at:], 1<<9)
	if _, err := Read(bytes.NewReader(long)); err == nil {
		t.Error("overrunning max-score key accepted")
	}
}

// TestSegmentedRoundTripV3 writes a multi-shard index and checks the
// shard partition and the index both survive the image round trip.
func TestSegmentedRoundTripV3(t *testing.T) {
	x := buildSmall(t)
	for _, shards := range []int{1, 2, 3} {
		seg := SegmentIndex(x, shards)
		got, err := ReadSegmented(bytes.NewReader(imageOf(t, seg, nil)))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got.NumShards() != seg.NumShards() {
			t.Fatalf("shards=%d: NumShards = %d", shards, got.NumShards())
		}
		for i := 0; i < seg.NumShards(); i++ {
			wlo, whi := seg.Shard(i).DocRange()
			glo, ghi := got.Shard(i).DocRange()
			if wlo != glo || whi != ghi {
				t.Errorf("shards=%d: shard %d range [%d,%d) != [%d,%d)", shards, i, glo, ghi, wlo, whi)
			}
		}
		if !indexesEqual(x, got.Index()) {
			t.Errorf("shards=%d: index did not round-trip", shards)
		}
	}
}

func TestBuildSortedDictionaryInvariant(t *testing.T) {
	x := buildSmall(t)
	terms := x.Terms()
	if !sort.StringsAreSorted(terms) {
		t.Fatalf("Build dictionary not sorted: %v", terms)
	}
	// IDs must agree with positions in the sorted list.
	for i, term := range terms {
		ts, ok := x.Lookup(term)
		if !ok || ts.ID != int32(i) {
			t.Errorf("Lookup(%q).ID = %d, want %d", term, ts.ID, i)
		}
	}
}
