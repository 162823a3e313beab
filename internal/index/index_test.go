package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func buildSmall(t *testing.T) *Index {
	t.Helper()
	b := NewBuilder()
	docs := []struct {
		id   string
		toks string
	}{
		{"d1", "apple fruit pie apple"},
		{"d2", "apple mac os"},
		{"d3", "tank army leopard"},
		{"d4", "leopard mac os apple"},
	}
	for _, d := range docs {
		if err := b.Add(d.id, strings.Fields(d.toks)); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestBuildBasics(t *testing.T) {
	x := buildSmall(t)
	if x.NumDocs() != 4 {
		t.Errorf("NumDocs = %d, want 4", x.NumDocs())
	}
	st := x.Stats()
	if st.NumDocs != 4 || st.TotalTokens != 14 {
		t.Errorf("stats = %+v", st)
	}
	if st.AvgDocLen != 3.5 {
		t.Errorf("AvgDocLen = %f, want 3.5", st.AvgDocLen)
	}
	if x.DocID(0) != "d1" || x.DocLen(0) != 4 {
		t.Errorf("doc 0 = %q len %d", x.DocID(0), x.DocLen(0))
	}
}

func TestTermStats(t *testing.T) {
	x := buildSmall(t)
	ts, ok := x.Lookup("apple")
	if !ok {
		t.Fatal("apple not found")
	}
	if ts.DF != 3 {
		t.Errorf("DF(apple) = %d, want 3", ts.DF)
	}
	if ts.CF != 4 {
		t.Errorf("CF(apple) = %d, want 4 (doubled in d1)", ts.CF)
	}
	if _, ok := x.Lookup("zebra"); ok {
		t.Error("lookup of absent term succeeded")
	}
}

func TestPostingsSortedWithTF(t *testing.T) {
	x := buildSmall(t)
	pl := x.Postings("apple")
	if len(pl) != 3 {
		t.Fatalf("postings = %v", pl)
	}
	wantDocs := []int32{0, 1, 3}
	wantTFs := []int32{2, 1, 1}
	for i, p := range pl {
		if p.Doc != wantDocs[i] || p.TF != wantTFs[i] {
			t.Errorf("postings[%d] = %+v, want doc %d tf %d", i, p, wantDocs[i], wantTFs[i])
		}
		if i > 0 && pl[i].Doc <= pl[i-1].Doc {
			t.Error("postings not strictly increasing by doc")
		}
	}
	if pl := x.Postings("nosuch"); pl != nil {
		t.Error("postings of absent term non-nil")
	}
}

func TestDuplicateDocRejected(t *testing.T) {
	b := NewBuilder()
	if err := b.Add("d1", []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if err := b.Add("d1", []string{"b"}); err == nil {
		t.Error("duplicate doc ID accepted")
	}
}

func TestEmptyDocument(t *testing.T) {
	b := NewBuilder()
	if err := b.Add("empty", nil); err != nil {
		t.Fatal(err)
	}
	x := b.Build()
	if x.NumDocs() != 1 || x.DocLen(0) != 0 {
		t.Errorf("empty doc handling: docs=%d len=%d", x.NumDocs(), x.DocLen(0))
	}
	if x.Stats().AvgDocLen != 0 {
		t.Errorf("AvgDocLen = %f", x.Stats().AvgDocLen)
	}
}

func TestEmptyIndexStats(t *testing.T) {
	x := NewBuilder().Build()
	st := x.Stats()
	if st.NumDocs != 0 || st.AvgDocLen != 0 {
		t.Errorf("empty stats = %+v", st)
	}
}

func TestDocFreqs(t *testing.T) {
	x := buildSmall(t)
	for term, want := range map[string]int{"apple": 3, "leopard": 2, "pie": 1} {
		ts, ok := x.Lookup(term)
		if got := x.DF(ts.ID); !ok || got != want {
			t.Errorf("DF(%q) = %d (found %v), want %d", term, got, ok, want)
		}
	}
}

func TestTermByID(t *testing.T) {
	x := buildSmall(t)
	ts, _ := x.Lookup("leopard")
	if x.Term(ts.ID) != "leopard" {
		t.Errorf("Term(%d) = %q", ts.ID, x.Term(ts.ID))
	}
	if got := x.PostingsByID(ts.ID); len(got) != 2 {
		t.Errorf("PostingsByID = %v", got)
	}
}

func indexesEqual(a, b *Index) bool {
	if a.NumDocs() != b.NumDocs() || a.NumTerms() != b.NumTerms() {
		return false
	}
	if a.Stats() != b.Stats() {
		return false
	}
	for i := int32(0); i < int32(a.NumDocs()); i++ {
		if a.DocID(i) != b.DocID(i) || a.DocLen(i) != b.DocLen(i) {
			return false
		}
	}
	for id := int32(0); id < int32(a.NumTerms()); id++ {
		if a.Term(id) != b.Term(id) {
			return false
		}
		if !reflect.DeepEqual(a.PostingsByID(id), b.PostingsByID(id)) {
			return false
		}
	}
	return true
}

// imageOf writes s as an RIDX7 image.
func imageOf(tb testing.TB, s *Segmented, payload func(int32) string) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteMapped(&buf, payload); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func TestCodecRoundTrip(t *testing.T) {
	x := buildSmall(t)
	got, err := Read(bytes.NewReader(imageOf(t, SegmentIndex(x, 1), nil)))
	if err != nil {
		t.Fatal(err)
	}
	if !indexesEqual(x, got) {
		t.Error("round-trip index differs")
	}
	// Lookups must work on the read index.
	ts, ok := got.Lookup("apple")
	if !ok || ts.CF != 4 {
		t.Errorf("decoded Lookup(apple) = %+v, %v", ts, ok)
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	for _, in := range []string{"", "XXXX1\n", "RIDX7\n", "RIDX7\n\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"} {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("Read(%q) succeeded", in)
		}
	}
}

func TestCodecRoundTripRandomized(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder()
		nDocs := rng.Intn(40) + 1
		vocab := []string{"a", "b", "c", "dd", "ee", "fff", "unicodeé"}
		for i := 0; i < nDocs; i++ {
			n := rng.Intn(30)
			toks := make([]string, n)
			for j := range toks {
				toks[j] = vocab[rng.Intn(len(vocab))]
			}
			if err := b.Add(fmt.Sprintf("doc-%d", i), toks); err != nil {
				return false
			}
		}
		x := b.Build()
		got, err := Read(bytes.NewReader(imageOf(t, SegmentIndex(x, rng.Intn(3)+1), nil)))
		if err != nil {
			return false
		}
		return indexesEqual(x, got)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkIndexBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	docs := make([][]string, 1000)
	vocab := make([]string, 2000)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("term%04d", i)
	}
	for i := range docs {
		toks := make([]string, 80)
		for j := range toks {
			toks[j] = vocab[rng.Intn(len(vocab))]
		}
		docs[i] = toks
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl := NewBuilder()
		for d, toks := range docs {
			bl.Add(fmt.Sprintf("d%d", d), toks)
		}
		bl.Build()
	}
}
