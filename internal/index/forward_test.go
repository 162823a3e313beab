package index

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// fieldsOf is a stand-in analyzer for these tests: whitespace fields,
// each split into lower-case tokens at '-', with "the" and bare
// punctuation dropped — enough to produce fields of 0, 1 and 2+ tokens.
func fieldsOf(text string) (tokens []string, lens []int32) {
	lens = []int32{}
	for _, f := range strings.Fields(text) {
		n := int32(0)
		for _, tok := range strings.Split(strings.ToLower(f), "-") {
			if tok == "" || tok == "the" || strings.Trim(tok, ".,!?") == "" {
				continue
			}
			tokens = append(tokens, tok)
			n++
		}
		lens = append(lens, n)
	}
	return tokens, lens
}

var forwardTexts = []string{
	"the quick brown fox",
	"state-of-the-art fox -- the !!! lazy-dog",
	"",
	"the the the",
	"zebra apple zebra mango apple zebra",
	"one",
	"... ,,, !!!",
}

func buildForwardFixture(t testing.TB, blockSize int) *Index {
	t.Helper()
	b := NewBuilder()
	b.SetBlockSize(blockSize)
	for i, text := range forwardTexts {
		tokens, lens := fieldsOf(text)
		if err := b.AddFields(string(rune('a'+i)), tokens, lens); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// decodeDoc returns document d as one term-string slice per field.
func decodeDoc(t testing.TB, x *Index, d int32) [][]string {
	t.Helper()
	terms, ends, ok := x.Forward().Doc(d, nil, nil)
	if !ok {
		t.Fatalf("doc %d does not decode", d)
	}
	out := make([][]string, len(ends))
	from := int32(0)
	for i, end := range ends {
		out[i] = []string{}
		for _, id := range terms[from:end] {
			out[i] = append(out[i], x.Term(id))
		}
		from = end
	}
	return out
}

func checkForwardFixture(t testing.TB, x *Index, label string) {
	t.Helper()
	if x.Forward() == nil {
		t.Fatalf("%s: no forward index", label)
	}
	for d, text := range forwardTexts {
		var want [][]string
		tokens, lens := fieldsOf(text)
		for _, n := range lens {
			want = append(want, append([]string{}, tokens[:n]...))
			tokens = tokens[n:]
		}
		if got := decodeDoc(t, x, int32(d)); !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Errorf("%s: doc %d fields %q, want %q", label, d, got, want)
		}
	}
	if _, _, ok := x.Forward().Doc(int32(len(forwardTexts)), nil, nil); ok {
		t.Errorf("%s: out-of-range document decoded", label)
	}
	if _, _, ok := x.Forward().Doc(-1, nil, nil); ok {
		t.Errorf("%s: negative document decoded", label)
	}
}

// TestForwardRoundTrip: the forward index reproduces every document's
// fields in the FINAL (sorted-dictionary) term numbering, through every
// way an index can come to hold one — built, rebuilt from text, written
// to a mapped image and opened in place or onto the heap.
func TestForwardRoundTrip(t *testing.T) {
	x := buildForwardFixture(t, 2)
	checkForwardFixture(t, x, "built")

	// Appending to caller scratch leaves what was there alone.
	terms, ends, ok := x.Forward().Doc(4, []int32{7, 7}, []int32{9})
	if !ok || len(terms) != 2+6 || len(ends) != 1+6 || terms[0] != 7 || ends[0] != 9 || ends[6] != 6 {
		t.Fatalf("Doc appended %v / %v", terms, ends)
	}

	// An index built without field boundaries has none, until rebuilt.
	b := NewBuilder()
	for i, text := range forwardTexts {
		tokens, _ := fieldsOf(text)
		if err := b.Add(string(rune('a'+i)), tokens); err != nil {
			t.Fatal(err)
		}
	}
	plain := b.Build()
	if plain.Forward() != nil {
		t.Fatal("Builder.Add produced a forward index")
	}
	plain.RebuildForward(func(d int32) ([]string, []int32) {
		tokens, lens := fieldsOf(forwardTexts[d])
		return append(tokens, "not-in-dictionary"), append(lens, 1) // dropped, leaving an empty field
	})
	for d, text := range forwardTexts {
		got := decodeDoc(t, plain, int32(d))
		if n := len(strings.Fields(text)) + 1; len(got) != n || len(got[n-1]) != 0 {
			t.Fatalf("rebuilt doc %d has fields %q", d, got)
		}
	}

	var img bytes.Buffer
	if _, err := SegmentIndex(x, 2).WriteMapped(&img, nil); err != nil {
		t.Fatal(err)
	}
	heap, err := Read(bytes.NewReader(img.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	checkForwardFixture(t, heap, "v7 heap")
	path := filepath.Join(t.TempDir(), "fwd.ridx7")
	if err := os.WriteFile(path, img.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	before, _ := BlockIOStats()
	mapped, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if after, _ := BlockIOStats(); after != before {
		t.Fatalf("open decoded %d posting blocks", after-before)
	}
	checkForwardFixture(t, mapped.Index(), "v7 mapped")
}

// TestForwardSectionsAreOptional: an index without a forward index is
// written exactly as before the sections existed — 14 sections, flag bit
// 1 clear — and one with it differs only by the two sections and the flag.
func TestForwardSectionsAreOptional(t *testing.T) {
	b := NewBuilder()
	b.SetBlockSize(2)
	for i, text := range forwardTexts {
		tokens, _ := fieldsOf(text)
		if err := b.Add(string(rune('a'+i)), tokens); err != nil {
			t.Fatal(err)
		}
	}
	var old, cur bytes.Buffer
	if _, err := SegmentIndex(b.Build(), 1).WriteMapped(&old, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := SegmentIndex(buildForwardFixture(t, 2), 1).WriteMapped(&cur, nil); err != nil {
		t.Fatal(err)
	}
	u64 := func(b []byte, at int) uint64 { return binary.LittleEndian.Uint64(b[at:]) }
	if flags, n := u64(old.Bytes(), 16), u64(old.Bytes(), 96); flags != 0 || n != v7BaseSections {
		t.Fatalf("forward-less image has flags %#x and %d sections", flags, n)
	}
	if flags, n := u64(cur.Bytes(), 16), u64(cur.Bytes(), 96); flags != v7FlagForward || n != v7NumSections {
		t.Fatalf("forward image has flags %#x and %d sections", flags, n)
	}
	x, err := Read(bytes.NewReader(old.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if x.Forward() != nil {
		t.Fatal("forward-less image opened with a forward index")
	}
	// A forward flag over a 14-section table (or the reverse) is corrupt.
	bad := append([]byte(nil), old.Bytes()...)
	binary.LittleEndian.PutUint64(bad[16:], v7FlagForward)
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Fatal("forward flag without forward sections accepted")
	}
	bad = append([]byte(nil), cur.Bytes()...)
	binary.LittleEndian.PutUint64(bad[16:], 0)
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Fatal("16 sections without the forward flag accepted")
	}
}

// TestForwardHostile corrupts the forward sections of a valid image.
// Damage to the offsets must fail the open; damage to the arena — which
// open never reads — must make exactly the damaged document undecodable
// (ok == false, caller's slices untouched), never a panic or a read
// outside the arena, and leave the other documents alone.
func TestForwardHostile(t *testing.T) {
	var buf bytes.Buffer
	if _, err := SegmentIndex(buildForwardFixture(t, 2), 1).WriteMapped(&buf, nil); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	sec := func(i int) (off, length int) {
		return int(binary.LittleEndian.Uint64(good[104+16*i:])), int(binary.LittleEndian.Uint64(good[104+16*i+8:]))
	}
	offsAt, _ := sec(secFwdOffs)
	blobAt, blobLen := sec(secFwdBlob)
	docAt := func(d int) int { return blobAt + int(binary.LittleEndian.Uint64(good[offsAt+8*d:])) }
	dir := t.TempDir()
	open := func(mutate func(b []byte)) (*Segmented, error) {
		b := append([]byte(nil), good...)
		mutate(b)
		path := filepath.Join(dir, "hostile.ridx7")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return OpenMapped(path)
	}

	for name, mutate := range map[string]func(b []byte){
		"non-monotone offsets":   func(b []byte) { binary.LittleEndian.PutUint64(b[offsAt+8*2:], 1) },
		"offset past the arena":  func(b []byte) { binary.LittleEndian.PutUint64(b[offsAt+8*3:], uint64(blobLen)+100) },
		"first offset not zero":  func(b []byte) { binary.LittleEndian.PutUint64(b[offsAt:], 1) },
		"last offset short":      func(b []byte) { binary.LittleEndian.PutUint64(b[offsAt+8*len(forwardTexts):], uint64(blobLen)-1) },
		"offsets section length": func(b []byte) { binary.LittleEndian.PutUint64(b[104+16*secFwdOffs+8:], 8) },
		"arena section past EOF": func(b []byte) { binary.LittleEndian.PutUint64(b[104+16*secFwdBlob+8:], uint64(len(b))) },
	} {
		if seg, err := open(mutate); err == nil {
			seg.Close()
			t.Errorf("%s: OpenMapped succeeded", name)
		}
	}

	// Document 4 is "zebra apple zebra mango apple zebra": six one-term
	// fields, two bytes each after the one-byte field count.
	const victim = 4
	for name, mutate := range map[string]func(b []byte){
		"term number >= numTerms": func(b []byte) { b[docAt(victim)+1], b[docAt(victim)+2] = 0xfe, 0x7f },
		"truncated varint":        func(b []byte) { b[docAt(victim+1)-1] = 0x80 },
		"oversized varint": func(b []byte) {
			for i := docAt(victim) + 1; i < docAt(victim+1); i++ {
				b[i] = 0xff
			}
		},
		"field count above the bytes":     func(b []byte) { b[docAt(victim)] = 0x7f },
		"field count below the bytes":     func(b []byte) { b[docAt(victim)] = 5 },
		"empty-field marker inside field": func(b []byte) { b[docAt(victim)+1], b[docAt(victim)+2] = 0x03, 0x00 },
	} {
		seg, err := open(mutate)
		if err != nil {
			t.Errorf("%s: arena damage must pass the structural open, got %v", name, err)
			continue
		}
		x := seg.Index()
		terms, ends, ok := x.Forward().Doc(victim, []int32{42}, []int32{43})
		if ok || !reflect.DeepEqual(terms, []int32{42}) || !reflect.DeepEqual(ends, []int32{43}) {
			t.Errorf("%s: damaged document decoded: ok=%v terms=%v ends=%v", name, ok, terms, ends)
		}
		for d := range forwardTexts {
			if d != victim {
				if _, _, ok := x.Forward().Doc(int32(d), nil, nil); !ok {
					t.Errorf("%s: undamaged document %d does not decode", name, d)
				}
			}
		}
		seg.Close()
	}
}
