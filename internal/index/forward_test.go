package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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

// decodeDoc returns document d as one sorted term-string multiset per
// field, checking Doc's order contract on the way: terms ascending, and
// within a term fields ascending.
func decodeDoc(t testing.TB, x *Index, d int32) [][]string {
	t.Helper()
	terms, fields, nf, ok := x.Forward().Doc(d, nil, nil)
	if !ok || len(terms) != len(fields) {
		t.Fatalf("doc %d does not decode (ok=%v, %d terms, %d fields)", d, ok, len(terms), len(fields))
	}
	out := make([][]string, nf)
	for i := range out {
		out[i] = []string{}
	}
	for i, id := range terms {
		if i > 0 && (id < terms[i-1] || id == terms[i-1] && fields[i] < fields[i-1]) {
			t.Fatalf("doc %d: occurrence %d (term %d, field %d) out of (term, field) order", d, i, id, fields[i])
		}
		out[fields[i]] = append(out[fields[i]], x.Term(id))
	}
	for _, f := range out {
		slices.Sort(f)
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
			field := append([]string{}, tokens[:n]...)
			slices.Sort(field)
			want = append(want, field)
			tokens = tokens[n:]
		}
		if got := decodeDoc(t, x, int32(d)); !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Errorf("%s: doc %d fields %q, want %q", label, d, got, want)
		}
	}
	if _, _, _, ok := x.Forward().Doc(int32(len(forwardTexts)), nil, nil); ok {
		t.Errorf("%s: out-of-range document decoded", label)
	}
	if _, _, _, ok := x.Forward().Doc(-1, nil, nil); ok {
		t.Errorf("%s: negative document decoded", label)
	}
}

// TestForwardRoundTrip: the forward index reproduces every document's
// per-field term multisets in the FINAL (sorted-dictionary) term
// numbering, through every way an index can come to hold one — built,
// written to a mapped image and opened in place or onto the heap.
func TestForwardRoundTrip(t *testing.T) {
	x := buildForwardFixture(t, 2)
	checkForwardFixture(t, x, "built")

	// Appending to caller scratch leaves what was there alone.
	terms, fields, nf, ok := x.Forward().Doc(4, []int32{7, 7}, []int32{9})
	if !ok || nf != 6 || len(terms) != 2+6 || len(fields) != 1+6 || terms[0] != 7 || terms[1] != 7 || fields[0] != 9 {
		t.Fatalf("Doc appended %v / %v (%d fields)", terms, fields, nf)
	}

	// An index built without field boundaries has none.
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
// written exactly as before the sections existed — 14 sections, flag bits
// 1 and 2 clear — and one with it differs only by the two sections and
// the two flags.
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
	if flags, n := u64(cur.Bytes(), 16), u64(cur.Bytes(), 96); flags != v7FlagForward|v7FlagTermOrder || n != v7NumSections {
		t.Fatalf("forward image has flags %#x and %d sections", flags, n)
	}
	x, err := Read(bytes.NewReader(old.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if x.Forward() != nil {
		t.Fatal("forward-less image opened with a forward index")
	}
	// Forward flags over a 14-section table (or the reverse), and the
	// term-order flag alone, are corrupt.
	for _, c := range []struct {
		img   []byte
		flags uint64
	}{
		{old.Bytes(), v7FlagForward | v7FlagTermOrder},
		{cur.Bytes(), 0},
		{cur.Bytes(), v7FlagTermOrder},
		{old.Bytes(), v7FlagTermOrder},
	} {
		bad := append([]byte(nil), c.img...)
		binary.LittleEndian.PutUint64(bad[16:], c.flags)
		if _, err := Read(bytes.NewReader(bad)); err == nil {
			t.Fatalf("flags %#x over %d sections accepted", c.flags, u64(bad, 96))
		}
	}
}

// TestForwardTextOrderImageRefused: an image whose forward sections carry
// flag bit 1 without bit 2 holds the text-order arena earlier builds
// wrote. No reader decodes it, so it fails to open — heap or mapped —
// with an error that says how to get a current image.
func TestForwardTextOrderImageRefused(t *testing.T) {
	var buf bytes.Buffer
	if _, err := SegmentIndex(buildForwardFixture(t, 2), 1).WriteMapped(&buf, nil); err != nil {
		t.Fatal(err)
	}
	old := buf.Bytes()
	binary.LittleEndian.PutUint64(old[16:], v7FlagForward)
	path := filepath.Join(t.TempDir(), "text-order.ridx7")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	_, readErr := Read(bytes.NewReader(old))
	seg, mapErr := OpenMapped(path)
	if seg != nil {
		seg.Close()
	}
	for name, err := range map[string]error{"Read": readErr, "OpenMapped": mapErr} {
		if !errors.Is(err, ErrTextOrderForward) || !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), "buildindex") {
			t.Errorf("%s of a text-order image: %v, want ErrTextOrderForward, an ErrBadFormat naming buildindex", name, err)
		}
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

	// Each arena case overwrites document 4 ("zebra apple zebra mango apple
	// zebra", 11 bytes) with a document of the same length that breaks
	// exactly one decode rule; the first breaks none. The filler is
	// occurrences marked same in field 0.
	const victim = 4
	n := docAt(victim+1) - docAt(victim)
	if n < 11 || n > 127 {
		t.Fatalf("document %d takes %d bytes; the cases need 11 to 127", victim, n)
	}
	numTerms := byte(binary.LittleEndian.Uint64(good[40:]))
	same := func(k int, field byte) []byte { return bytes.Repeat([]byte{field<<1 | 1}, k) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	by := func(v ...int) []byte {
		out := make([]byte, len(v))
		for i, x := range v {
			out[i] = byte(x)
		}
		return out
	}
	for _, c := range []struct {
		name string
		doc  []byte
	}{
		{"sound", cat(by(6, n-3, 0, 1), same(n-4, 0))},
		{"truncated varint", cat(by(6, n-3, 0, 1), same(n-5, 0), by(0x80))},
		{"oversized varint", bytes.Repeat([]byte{0xff}, n)},
		{"field count beyond an int32", cat(by(0x80, 0x80, 0x80, 0x80, 0x08, n-7, 0, 1), same(n-8, 0))},
		{"more occurrences than bytes", cat(by(6, n-1, 0, 1), same(n-4, 0))},
		{"first occurrence marked same", cat(by(6, n-2), same(n-2, 0))},
		{"zero delta on a new term", cat(by(6, n-3, 0, 0), same(n-4, 0))},
		{"term outside the dictionary", cat(by(6, n-3, 0, int(numTerms)+1), same(n-4, 0))},
		{"field >= F", cat(by(6, n-3, 0, 1), same(n-5, 0), same(1, 6))},
		{"field below its term's last", cat(by(6, n-3, 2<<1, 1), same(n-5, 2), same(1, 1))},
		{"trailing bytes", cat(by(6, n-4, 0, 1), same(n-5, 0), by(0))},
	} {
		if len(c.doc) != n {
			t.Fatalf("%s: crafted %d bytes for a %d-byte slot", c.name, len(c.doc), n)
		}
		seg, err := open(func(b []byte) { copy(b[docAt(victim):], c.doc) })
		if err != nil {
			t.Errorf("%s: arena damage must pass the structural open, got %v", c.name, err)
			continue
		}
		x := seg.Index()
		terms, fields, nf, ok := x.Forward().Doc(victim, []int32{42}, []int32{43})
		if c.name == "sound" {
			if !ok || nf != 6 || len(terms) != 1+n-3 || !slices.Equal(fields, append([]int32{43}, make([]int32, n-3)...)) {
				t.Errorf("sound document: ok=%v nf=%d terms=%v fields=%v", ok, nf, terms, fields)
			}
		} else if ok || nf != 0 || !reflect.DeepEqual(terms, []int32{42}) || !reflect.DeepEqual(fields, []int32{43}) {
			t.Errorf("%s: damaged document decoded: ok=%v nf=%d terms=%v fields=%v", c.name, ok, nf, terms, fields)
		}
		for d := range forwardTexts {
			if d != victim {
				if _, _, _, ok := x.Forward().Doc(int32(d), nil, nil); !ok {
					t.Errorf("%s: undamaged document %d does not decode", c.name, d)
				}
			}
		}
		seg.Close()
	}
}

// TestForwardBatches: documents are put in term order a batch of about
// 1<<16 occurrences at a time; a collection several batches long, with
// repeated terms inside fields and empty fields, still decodes to every
// document's own per-field multisets.
func TestForwardBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	texts := make([]string, 3000)
	for d := range texts {
		var fields []string
		for f := rng.Intn(90); f >= 0; f-- {
			var toks []string
			for k := rng.Intn(4); k > 0; k-- {
				toks = append(toks, fmt.Sprintf("t%d", rng.Intn(700)))
			}
			if len(toks) == 0 {
				toks = []string{"the"}
			}
			fields = append(fields, strings.Join(toks, "-"))
		}
		texts[d] = strings.Join(fields, " ")
	}
	b := NewBuilder()
	occurrences := 0
	for d, text := range texts {
		tokens, lens := fieldsOf(text)
		occurrences += len(tokens)
		if err := b.AddFields(fmt.Sprint(d), tokens, lens); err != nil {
			t.Fatal(err)
		}
	}
	if occurrences < 3<<16 {
		t.Fatalf("%d occurrences fill fewer than three batches", occurrences)
	}
	x := b.Build()
	for d, text := range texts {
		tokens, lens := fieldsOf(text)
		want := make([][]string, len(lens))
		for i, n := range lens {
			want[i] = append([]string{}, tokens[:n]...)
			slices.Sort(want[i])
			tokens = tokens[n:]
		}
		if got := decodeDoc(t, x, int32(d)); !reflect.DeepEqual(got, want) {
			t.Fatalf("doc %d: fields %q, want %q", d, got, want)
		}
	}
}

// refForwardDoc is Forward.Doc as it decoded before the one-byte varint
// fast path — every varint through binary.Uvarint — kept as the oracle
// FuzzForwardDoc holds the decoder to.
func refForwardDoc(f *Forward, d int32, terms, fields []int32) (t, fl []int32, nFields int, ok bool) {
	if d < 0 || int(d) >= len(f.offs)-1 {
		return terms, fields, 0, false
	}
	b := f.blob[f.offs[d]:f.offs[d+1]]
	nf, n := binary.Uvarint(b)
	if n <= 0 || nf > math.MaxInt32 {
		return terms, fields, 0, false
	}
	b = b[n:]
	nOcc, n := binary.Uvarint(b)
	if n <= 0 {
		return terms, fields, 0, false
	}
	b = b[n:]
	if nOcc > uint64(len(b)) {
		return terms, fields, 0, false
	}
	t, fl = terms, fields
	term, field := int64(-1), uint64(0)
	for i := uint64(0); i < nOcc; i++ {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return terms, fields, 0, false
		}
		b = b[n:]
		next := v >> 1
		if next >= nf {
			return terms, fields, 0, false
		}
		if v&1 == 1 {
			if i == 0 || next < field {
				return terms, fields, 0, false
			}
		} else {
			delta, n := binary.Uvarint(b)
			if n <= 0 || delta == 0 || delta > uint64(int64(f.numTerms)-1-term) {
				return terms, fields, 0, false
			}
			b = b[n:]
			term += int64(delta)
		}
		field = next
		t = append(t, int32(term))
		fl = append(fl, int32(field))
	}
	if len(b) != 0 {
		return terms, fields, 0, false
	}
	return t, fl, int(nf), true
}

// FuzzForwardDoc holds Forward.Doc to the decoder it replaced
// (refForwardDoc) over arbitrary arenas: lens is a run of uvarint
// document lengths cut from arena (clamped to it; the last document
// takes the rest), numTerms the dictionary size, and pre how many
// entries the slices handed in already hold. For every document, and for
// the two just out of range, both decoders must return the same terms,
// fields, field count and verdict — including what they append after
// the entries handed in, and the slices given back on a refusal.
func FuzzForwardDoc(f *testing.F) {
	x := buildForwardFixture(f, 2)
	fw := x.Forward()
	var lens []byte
	for d := 0; d+1 < len(fw.offs); d++ {
		lens = binary.AppendUvarint(lens, fw.offs[d+1]-fw.offs[d])
	}
	f.Add(fw.blob, lens, fw.numTerms, uint8(0))
	f.Add(fw.blob, lens, fw.numTerms, uint8(3))
	f.Add(fw.blob[:len(fw.blob)-1], lens, fw.numTerms, uint8(1)) // the last document truncated
	f.Add(fw.blob, lens, int32(1), uint8(2))                     // terms past a one-term dictionary
	ten := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
	f.Add(append([]byte{2, 1, 0}, ten...), []byte(nil), int32(math.MaxInt32), uint8(1))                                       // a 10-byte delta
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 1, 0, 1}, []byte(nil), int32(4), uint8(0)) // an oversized varint
	f.Add([]byte{1, 2, 0, 1, 0x81}, []byte(nil), int32(4), uint8(0))                                                          // a truncated varint
	f.Add([]byte{1, 1, 0x80, 0x01, 1, 2, 1, 0, 1}, []byte{4, 5}, int32(8), uint8(2))                                          // a two-byte field

	f.Fuzz(func(t *testing.T, arena, lens []byte, numTerms int32, pre uint8) {
		offs := []uint64{0}
		for len(lens) > 0 && len(offs) <= 1<<12 {
			l, n := binary.Uvarint(lens)
			if n <= 0 {
				break
			}
			lens = lens[n:]
			last := offs[len(offs)-1]
			offs = append(offs, last+min(l, uint64(len(arena))-last))
		}
		if offs[len(offs)-1] != uint64(len(arena)) {
			offs = append(offs, uint64(len(arena)))
		}
		fwd, err := newForward(offs, arena, len(offs)-1, int(numTerms))
		if err != nil {
			t.Fatalf("offsets %v over %d bytes: %v", offs, len(arena), err)
		}
		seed := make([]int32, pre%4)
		for i := range seed {
			seed[i] = int32(-1 - i)
		}
		for d := int32(-1); d <= int32(len(offs)-1); d++ {
			terms, fields := slices.Clone(seed), append(slices.Clone(seed), -9)
			wt, wf, wn, wok := refForwardDoc(fwd, d, terms, fields)
			terms, fields = slices.Clone(seed), append(slices.Clone(seed), -9)
			gt, gf, gn, gok := fwd.Doc(d, terms, fields)
			if gok != wok || gn != wn || !slices.Equal(gt, wt) || !slices.Equal(gf, wf) {
				t.Fatalf("doc %d of %v: Doc = %v %v %d %v, decoder it replaced = %v %v %d %v", d, arena[offs[max(d, 0)]:offs[min(int(d)+1, len(offs)-1)]], gt, gf, gn, gok, wt, wf, wn, wok)
			}
		}
	})
}
