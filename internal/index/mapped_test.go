package index

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// writeMappedFile serializes s as a RIDX7 file under t.TempDir.
func writeMappedFile(t *testing.T, s *Segmented, payload func(int32) string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "index.ridx7")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteMapped(f, payload); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// testScore is a deterministic scoring function for table round-trips.
func testScore(tf, docLen float64, ts TermStats, c CollectionStats) float64 {
	return tf / (1 + docLen) * math.Log(1+float64(c.NumDocs)/float64(ts.DF))
}

func buildMappedFixture(t *testing.T) *Segmented {
	t.Helper()
	x := buildRandom(t, 23, 400, 16)
	if err := x.SetMaxScores("test", x.ComputeMaxScores(testScore)); err != nil {
		t.Fatal(err)
	}
	if err := x.SetBlockMaxScores("test", x.ComputeBlockMaxScores(testScore)); err != nil {
		t.Fatal(err)
	}
	return SegmentIndex(x, 3)
}

func TestWriteMappedRoundTrip(t *testing.T) {
	base := ActiveMappings()
	src := buildMappedFixture(t)
	path := writeMappedFile(t, src, nil)
	if head, err := os.ReadFile(path); err != nil || !bytes.HasPrefix(head, []byte(magicV7+"\x00\x00")) {
		t.Fatalf("image does not start with the RIDX7 magic (err %v)", err)
	}

	got, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	if ActiveMappings() != base+1 {
		t.Fatalf("ActiveMappings = %d, want %d", ActiveMappings(), base+1)
	}
	if !got.Index().Mapped() {
		t.Fatal("OpenMapped index does not report Mapped")
	}
	if !indexesEqual(src.Index(), got.Index()) {
		t.Fatal("mapped index differs from source")
	}
	if !reflect.DeepEqual(src.ShardSizes(), got.ShardSizes()) {
		t.Fatalf("shard sizes %v, want %v", got.ShardSizes(), src.ShardSizes())
	}
	wantMax := src.Index().MaxScores("test")
	gotMax := got.Index().MaxScores("test")
	if !reflect.DeepEqual(append([]float64(nil), wantMax...), append([]float64(nil), gotMax...)) {
		t.Fatal("max-score table differs through the mapped layout")
	}
	wantBlk := src.Index().BlockMaxScores("test")
	gotBlk := got.Index().BlockMaxScores("test")
	if !reflect.DeepEqual(append([]float64(nil), wantBlk...), append([]float64(nil), gotBlk...)) {
		t.Fatal("block-max table differs through the mapped layout")
	}
	// Dictionary lookups (binary search — no map on the mapped layout).
	for id := int32(0); int(id) < src.Index().NumTerms(); id++ {
		term := src.Index().Term(id)
		ts, ok := got.Index().Lookup(term)
		if !ok || ts.ID != id {
			t.Fatalf("Lookup(%q) = %+v, %v", term, ts, ok)
		}
	}
	if _, ok := got.Index().Lookup("never-indexed"); ok {
		t.Fatal("Lookup invented a term")
	}
	if err := got.Close(); err != nil {
		t.Fatal(err)
	}
	if ActiveMappings() != base {
		t.Fatalf("ActiveMappings = %d after Close, want %d", ActiveMappings(), base)
	}
}

// TestReadV7Stream checks the owned-slab path: a v7 byte stream read
// through ReadSegmented serves the same index off the heap.
func TestReadV7Stream(t *testing.T) {
	src := buildMappedFixture(t)
	var buf bytes.Buffer
	if _, err := src.WriteMapped(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSegmented(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Index().Mapped() {
		t.Fatal("stream-read v7 index claims to be mapped")
	}
	if !indexesEqual(src.Index(), got.Index()) {
		t.Fatal("stream-read v7 index differs from source")
	}
	if !reflect.DeepEqual(src.ShardSizes(), got.ShardSizes()) {
		t.Fatalf("shard sizes %v, want %v", got.ShardSizes(), src.ShardSizes())
	}
}

// TestOpenMappedZeroDecode is the acceptance assertion: opening a mapped
// index must not decode a single posting block.
func TestOpenMappedZeroDecode(t *testing.T) {
	src := buildMappedFixture(t)
	path := writeMappedFile(t, src, nil)
	before, _ := BlockIOStats()
	got, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	after, _ := BlockIOStats()
	if after != before {
		t.Fatalf("OpenMapped decoded %d posting blocks, want 0", after-before)
	}
	// And traversal still works after the zero-decode open.
	it := got.Index().PostingIter(0)
	n := 0
	for blk := it.NextBlock(); blk != nil; blk = it.NextBlock() {
		n += len(blk)
	}
	it.Release()
	if n != got.Index().DF(0) {
		t.Fatalf("iterated %d postings, df %d", n, got.Index().DF(0))
	}
}

// TestMappedIteratorSurvivesClose: the refcount must hold the mapping
// until the last iterator drops, even after the index is Closed.
func TestMappedIteratorSurvivesClose(t *testing.T) {
	base := ActiveMappings()
	src := buildMappedFixture(t)
	want := src.Index().PostingsByID(1)
	path := writeMappedFile(t, src, nil)
	got, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	it := got.Index().PostingIter(1)
	if err := got.Close(); err != nil {
		t.Fatal(err)
	}
	if ActiveMappings() != base+1 {
		t.Fatalf("mapping dropped while an iterator is live (ActiveMappings=%d)", ActiveMappings())
	}
	var have []Posting
	for p, ok := it.Next(); ok; p, ok = it.Next() {
		have = append(have, p)
	}
	if !reflect.DeepEqual(have, want) {
		t.Fatal("iterator over a closed index returned wrong postings")
	}
	it.Release()
	if ActiveMappings() != base {
		t.Fatalf("ActiveMappings = %d after last Release, want %d", ActiveMappings(), base)
	}
}

func TestMappedPayloads(t *testing.T) {
	src := buildMappedFixture(t)
	bodies := make([]string, src.Index().NumDocs())
	for d := range bodies {
		if d%7 != 0 { // leave some empty
			bodies[d] = "body of " + src.Index().DocID(int32(d))
		}
	}
	path := writeMappedFile(t, src, func(d int32) string { return bodies[d] })
	got, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if !got.Index().HasPayloads() {
		t.Fatal("payload sections missing")
	}
	for d := range bodies {
		p, ok := got.Index().Payload(int32(d))
		if !ok || p != bodies[d] {
			t.Fatalf("Payload(%d) = %q, %v; want %q", d, p, ok, bodies[d])
		}
	}
	if _, ok := got.Index().Payload(int32(len(bodies))); ok {
		t.Fatal("Payload out of range succeeded")
	}
	// Without payloads the accessor must answer not-ok.
	plain, err := OpenMapped(writeMappedFile(t, src, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if plain.Index().HasPayloads() {
		t.Fatal("payload sections present without a payload writer")
	}
	if _, ok := plain.Index().Payload(0); ok {
		t.Fatal("Payload answered on a payload-less index")
	}
}

// TestOpenMappedHostile: truncations and targeted corruptions of a valid
// v7 file must error at open (or truncate reads safely) — never panic.
func TestOpenMappedHostile(t *testing.T) {
	src := buildMappedFixture(t)
	var buf bytes.Buffer
	if _, err := src.WriteMapped(&buf, nil); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	dir := t.TempDir()
	write := func(b []byte) string {
		path := filepath.Join(dir, "hostile.ridx7")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	// Truncations at every structurally interesting size must error.
	for _, n := range []int{0, 1, 6, 8, v7HeaderSize - 1, v7HeaderSize, v7HeaderSize + 100, len(good) / 2, len(good) - 1} {
		if seg, err := OpenMapped(write(good[:n])); err == nil {
			seg.Close()
			t.Fatalf("OpenMapped of %d-byte truncation succeeded", n)
		}
	}

	// Targeted header corruptions.
	corrupt := func(name string, mutate func(b []byte)) {
		b := append([]byte(nil), good...)
		mutate(b)
		if seg, err := OpenMapped(write(b)); err == nil {
			seg.Close()
			t.Errorf("%s: OpenMapped succeeded on corrupt file", name)
		}
	}
	p64 := func(b []byte, at int, v uint64) { binary.LittleEndian.PutUint64(b[at:], v) }
	corrupt("bad magic", func(b []byte) { b[0] = 'X' })
	corrupt("bad version", func(b []byte) { p64(b, 8, 99) })
	corrupt("unknown flags", func(b []byte) { p64(b, 16, 1<<7) })
	corrupt("zero blockCap", func(b []byte) { p64(b, 24, 0) })
	corrupt("huge numDocs", func(b []byte) { p64(b, 32, 1<<62) })
	corrupt("fileSize beyond EOF", func(b []byte) { p64(b, 88, uint64(len(b))+4096) })
	corrupt("section count", func(b []byte) { p64(b, 96, 3) })
	corrupt("section offset beyond file", func(b []byte) { p64(b, 104, uint64(len(b))+8) })
	corrupt("section offset misaligned", func(b []byte) { p64(b, 104+16*secDocOffs, binary.LittleEndian.Uint64(b[104+16*secDocOffs:])+4) })
	corrupt("block data unaligned", func(b []byte) {
		p64(b, 104+16*secBlockData, binary.LittleEndian.Uint64(b[104+16*secBlockData:])+8)
	})
	corrupt("docOffs blob overrun", func(b []byte) {
		off := binary.LittleEndian.Uint64(b[104+16*secDocOffs:])
		p64(b, int(off)+8, 1<<40) // second doc offset far past the blob
	})
	corrupt("termRec df lies", func(b []byte) {
		off := binary.LittleEndian.Uint64(b[104+16*secTermRecs:])
		binary.LittleEndian.PutUint32(b[int(off)+24:], binary.LittleEndian.Uint32(b[int(off)+24:])+1)
	})
	corrupt("block header count zero", func(b []byte) {
		off := binary.LittleEndian.Uint64(b[104+16*secBlockHdrs:])
		binary.LittleEndian.PutUint32(b[int(off)+8:], 0)
	})

	// Corrupt POSTING BYTES pass open (they are not validated there) but
	// must end iterators early instead of panicking or serving garbage.
	b := append([]byte(nil), good...)
	off := binary.LittleEndian.Uint64(b[104+16*secBlockData:])
	length := binary.LittleEndian.Uint64(b[104+16*secBlockData+8:])
	for i := uint64(0); i < length; i++ {
		b[off+i] = 0xff // non-terminating varints everywhere
	}
	seg, err := OpenMapped(write(b))
	if err != nil {
		t.Fatalf("corrupt posting bytes must pass structural open, got %v", err)
	}
	defer seg.Close()
	x := seg.Index()
	for id := int32(0); int(id) < x.NumTerms(); id++ {
		it := x.PostingIter(id)
		for p, ok := it.Next(); ok; p, ok = it.Next() {
			if p.Doc < 0 || int(p.Doc) >= x.NumDocs() {
				t.Fatalf("corrupt block served doc %d", p.Doc)
			}
		}
		it.Release()
		if got := x.PostingsByID(id); len(got) > x.DF(id) {
			t.Fatalf("materialize served %d postings for df %d", len(got), x.DF(id))
		}
	}
}
