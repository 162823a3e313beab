package engine

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ranking"
	"repro/internal/textsim"
)

func smallCorpus() []Document {
	return []Document{
		{ID: "osx", Title: "Mac OS X Leopard", Body: "Apple released the Leopard operating system for Mac computers with many new features for the desktop and developer tools included"},
		{ID: "tank", Title: "Leopard 2 tank", Body: "The Leopard 2 is a main battle tank developed for the German army with advanced armor and a powerful cannon used by many countries"},
		{ID: "cat", Title: "Leopard cat", Body: "The leopard is a wild cat species living in Africa and Asia known for its spotted coat and climbing ability in savanna habitats"},
		{ID: "pie", Title: "Apple pie", Body: "A classic apple pie recipe with cinnamon sugar and a flaky butter crust baked until golden brown and served warm with cream"},
	}
}

func buildEngine(t testing.TB) *Engine {
	t.Helper()
	e, err := Build(smallCorpus(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestBuildAndSearch(t *testing.T) {
	e := buildEngine(t)
	if e.NumDocs() != 4 {
		t.Fatalf("NumDocs = %d", e.NumDocs())
	}
	results := e.Search("leopard tank army", 10)
	if len(results) == 0 {
		t.Fatal("no results")
	}
	if results[0].DocID != "tank" {
		t.Errorf("top result = %s, want tank", results[0].DocID)
	}
	for i, r := range results {
		if r.Rank != i+1 {
			t.Errorf("rank[%d] = %d", i, r.Rank)
		}
		if r.Snippet == "" {
			t.Errorf("empty snippet for %s", r.DocID)
		}
	}
}

func TestBuildRejectsDuplicates(t *testing.T) {
	docs := []Document{{ID: "a", Body: "x"}, {ID: "a", Body: "y"}}
	if _, err := Build(docs, Config{}); err == nil {
		t.Error("duplicate IDs accepted")
	}
}

func TestSearchKLimit(t *testing.T) {
	e := buildEngine(t)
	if got := e.Search("leopard", 2); len(got) != 2 {
		t.Errorf("k=2 returned %d", len(got))
	}
	all := e.Search("leopard", 0)
	if len(all) != 3 {
		t.Errorf("k=0 returned %d, want 3 leopard docs", len(all))
	}
}

func TestSnippetQueryBiased(t *testing.T) {
	// Long document where the query terms appear only near the end.
	long := Document{
		ID:    "long",
		Title: "padding",
		Body: strings.Repeat("filler words about nothing in particular ", 30) +
			"the secret treasure map location is here " +
			strings.Repeat("more filler content after the important part ", 10),
	}
	e, err := Build(append(smallCorpus(), long), Config{SnippetWindow: 12})
	if err != nil {
		t.Fatal(err)
	}
	snip := e.Snippet("long", "secret treasure map")
	if !strings.Contains(snip, "treasure") {
		t.Errorf("snippet missed query region: %q", snip)
	}
	if got := len(strings.Fields(snip)); got != 12 {
		t.Errorf("snippet window = %d tokens, want 12", got)
	}
}

func TestSnippetEdgeCases(t *testing.T) {
	e := buildEngine(t)
	if s := e.Snippet("nosuchdoc", "query"); s != "" {
		t.Errorf("unknown doc snippet = %q", s)
	}
	// Doc shorter than window: whole text.
	short := Document{ID: "tiny", Body: "just three words"}
	e2, err := Build([]Document{short}, Config{SnippetWindow: 30})
	if err != nil {
		t.Fatal(err)
	}
	if s := e2.Snippet("tiny", "anything"); s != "just three words" {
		t.Errorf("short doc snippet = %q", s)
	}
	// No match: leading window.
	if s := e.Snippet("pie", "quantum physics"); s == "" {
		t.Error("no-match snippet empty")
	}
}

func TestSurrogateVectorDiscriminates(t *testing.T) {
	e := buildEngine(t)
	// The representation the paper's utility function operates on: the
	// IDF-weighted vector of the document's query-biased snippet.
	surrogate := func(docID, query string) textsim.IVector {
		return e.IVectorOfText(e.Snippet(docID, query))
	}
	osV := surrogate("osx", "leopard mac os x")
	tankV := surrogate("tank", "leopard tank")
	pieV := surrogate("pie", "apple pie recipe")
	if osV.IsZero() || tankV.IsZero() || pieV.IsZero() {
		t.Fatal("zero surrogate vector")
	}
	// OS and tank snippets share "leopard" but IDF weighting must keep
	// cross-intent similarity well below same-intent self-similarity.
	if sim := osV.Cosine(tankV); sim > 0.6 {
		t.Errorf("os~tank similarity = %f, suspiciously high", sim)
	}
	if self := osV.Cosine(osV); self < 0.999 {
		t.Errorf("self similarity = %f", self)
	}
}

func TestCustomModel(t *testing.T) {
	e, err := Build(smallCorpus(), Config{Model: ranking.BM25{}})
	if err != nil {
		t.Fatal(err)
	}
	if e.Model().Name() != "BM25" {
		t.Errorf("model = %s", e.Model().Name())
	}
	got := e.Search("apple pie recipe", 1)
	if len(got) != 1 || got[0].DocID != "pie" {
		t.Errorf("BM25 search = %+v", got)
	}
}

func TestBuildEmptyCorpus(t *testing.T) {
	e, err := Build(nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if e.NumDocs() != 0 {
		t.Errorf("NumDocs = %d", e.NumDocs())
	}
	if got := e.Search("anything", 5); len(got) != 0 {
		t.Errorf("search on empty corpus = %v", got)
	}
}

func TestVectorOfTextConsistentWithSearchAnalysis(t *testing.T) {
	e := buildEngine(t)
	// The same raw text must vectorize identically regardless of path.
	v1 := e.IVectorOfText("Apple released the Leopard operating system")
	v2 := e.IVectorOfText("apple RELEASED the leopard OPERATING system!!")
	if v1.Cosine(v2) < 0.999 {
		t.Errorf("case/punctuation changed the vector: cos = %f", v1.Cosine(v2))
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	e := buildEngine(t)
	var buf bytes.Buffer
	if err := e.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumDocs() != e.NumDocs() {
		t.Fatalf("NumDocs = %d, want %d", loaded.NumDocs(), e.NumDocs())
	}
	// Identical search results, scores and snippets.
	for _, q := range []string{"leopard tank army", "apple pie recipe", "leopard"} {
		want := e.Search(q, 10)
		got := loaded.Search(q, 10)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Search(%q) differs after reload:\ngot  %+v\nwant %+v", q, got, want)
		}
	}
	// Surrogate vectors identical (IDF recomputed from the index).
	v1 := e.IVectorOfText(e.Snippet("osx", "leopard mac"))
	v2 := loaded.IVectorOfText(loaded.Snippet("osx", "leopard mac"))
	if v1.Cosine(v2) < 0.999999 {
		t.Error("surrogate vectors differ after reload")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	for _, in := range []string{"", "XENG1\n", "RENG3\nnot a container", "RENG3\n\x01\x00\x00\x01" + "RIDX7\n"} {
		if _, err := Load(strings.NewReader(in), Config{}); err == nil {
			t.Errorf("Load(%q) succeeded", in)
		}
	}
}

// TestLoadRejectsLegacyMagic: RENG1 and RENG2 — the stream formats of
// earlier builds, the latter a RIDX6 manifest plus bodies — are foreign
// formats now: a clean ErrBadEngineFormat, not an attempt to parse what
// follows.
func TestLoadRejectsLegacyMagic(t *testing.T) {
	var buf bytes.Buffer
	if err := buildEngine(t).SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, magic := range []string{"RENG1\n", "RENG2\n"} {
		legacy := append([]byte(magic), buf.Bytes()[len(engineMagic):]...)
		if _, err := Load(bytes.NewReader(legacy), Config{}); !errors.Is(err, ErrBadEngineFormat) {
			t.Fatalf("Load(%q stream) = %v, want ErrBadEngineFormat", magic, err)
		}
	}
}

func TestLoadTruncatedDocStore(t *testing.T) {
	e := buildEngine(t)
	var buf bytes.Buffer
	if err := e.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if _, err := Load(bytes.NewReader(full[:len(full)-10]), Config{}); err == nil {
		t.Error("truncated stream accepted")
	}
}
