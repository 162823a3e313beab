package index

import (
	"bytes"
	"errors"
	"sort"
	"strings"
	"testing"
)

// TestLegacyMagicsRejected: the flat-posting RIDX1–RIDX4 streams of early
// builds, which nothing has written since RIDX5, are foreign formats now.
// Every reading entry point answers ErrBadFormat from the magic alone,
// whatever follows it.
func TestLegacyMagicsRejected(t *testing.T) {
	var buf bytes.Buffer
	if _, err := buildSmall(t).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, magic := range []string{"RIDX1\n", "RIDX2\n", "RIDX3\n", "RIDX4\n"} {
		stream := append([]byte(magic), buf.Bytes()[len(magicV5):]...)
		if _, err := Read(bytes.NewReader(stream)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%q: Read = %v, want ErrBadFormat", magic, err)
		}
		if _, err := ReadSegmented(bytes.NewReader(stream)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%q: ReadSegmented = %v, want ErrBadFormat", magic, err)
		}
		if _, err := ReadManifest(bytes.NewReader(stream)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%q: ReadManifest = %v, want ErrBadFormat", magic, err)
		}
	}
}

func TestWriteToEmitsV5(t *testing.T) {
	x := buildSmall(t)
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), magicV5) {
		t.Errorf("stream starts with %q, want %q", buf.String()[:6], magicV5)
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
		var buf bytes.Buffer
		if _, err := SegmentIndex(x, shards).WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadSegmented(&buf)
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

// TestCorruptMaxScoreBlocksRejected feeds a valid stream with its score-
// table tail (max-score block, block-max block) truncated or corrupted at
// various points: every variant must error, never panic.
func TestCorruptMaxScoreBlocksRejected(t *testing.T) {
	x := buildSmall(t)
	table := make([]float64, x.NumTerms())
	for i := range table {
		table[i] = float64(i) + 0.25
	}
	if err := x.SetMaxScores("T", table); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// The tail: max-score table count byte, key ("T" + length byte), the
	// float64 entries, then the block-max table count byte.
	blockLen := 1 + 2 + 8*x.NumTerms() + 1
	for cut := 1; cut <= blockLen; cut++ {
		if _, err := Read(bytes.NewReader(full[:len(full)-cut])); err == nil {
			t.Errorf("stream truncated by %d bytes accepted", cut)
		}
	}
	// A NaN entry violates the finite-nonnegative contract. The last
	// max-score float sits just before the trailing block-max count byte.
	nan := append([]byte(nil), full...)
	for i := 0; i < 8; i++ {
		nan[len(nan)-2-i] = 0xff
	}
	if _, err := Read(bytes.NewReader(nan)); err == nil {
		t.Error("NaN max-score entry accepted")
	}
}

// TestSegmentedRoundTripV3 writes a multi-shard index and checks the
// manifest and the index both survive the v3 round trip.
func TestSegmentedRoundTripV3(t *testing.T) {
	x := buildSmall(t)
	for _, shards := range []int{1, 2, 3} {
		seg := SegmentIndex(x, shards)
		var buf bytes.Buffer
		if _, err := seg.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadSegmented(&buf)
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
