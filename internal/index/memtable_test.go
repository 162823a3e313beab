package index

import (
	"reflect"
	"strings"
	"testing"
)

func memdoc(id, text string) MemDoc {
	return MemDoc{ID: id, Tokens: strings.Fields(text), Payload: text}
}

func TestMemtableLifecycle(t *testing.T) {
	m := NewMemtable()
	if v := m.View(); v != nil {
		t.Fatalf("empty memtable view = %v, want nil", v)
	}
	if m.Add(memdoc("a", "apple pie")) {
		t.Fatal("first Add reported replaced")
	}
	m.Add(memdoc("b", "banana split"))
	m.Add(memdoc("c", "cherry tart"))
	if got := m.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}

	v := m.View()
	if v == nil || v.NumDocs() != 3 || v.Seg.Index().NumDocs() != 3 {
		t.Fatalf("view over 3 docs came back wrong: %+v", v)
	}
	if !v.Has("b") || v.Has("zz") {
		t.Fatal("view membership wrong")
	}
	if d, ok := v.Ordinal("c"); !ok || v.PayloadAt(d) != "cherry tart" {
		t.Fatalf("payload of c = %q, %v", v.PayloadAt(d), ok)
	}
	if m.View() != v {
		t.Fatal("unmutated memtable rebuilt its view")
	}

	// Update = delete + append: "a" moves to the end of insertion order.
	if !m.Add(memdoc("a", "apple crumble")) {
		t.Fatal("update did not report replaced")
	}
	if got := m.Len(); got != 3 {
		t.Fatalf("Len after update = %d, want 3", got)
	}
	if m.View() == v {
		t.Fatal("mutation did not invalidate the cached view")
	}
	ids := func() []string {
		var out []string
		for _, d := range m.LiveDocs() {
			out = append(out, d.ID)
		}
		return out
	}
	if got, want := ids(), []string{"b", "c", "a"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("LiveDocs order %v, want %v", got, want)
	}

	if !m.Delete("b") || m.Delete("b") {
		t.Fatal("Delete semantics wrong")
	}
	if !m.Has("a") || m.Has("b") {
		t.Fatal("Has after delete wrong")
	}
	if got, want := ids(), []string{"c", "a"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("LiveDocs after delete %v, want %v", got, want)
	}
	v2 := m.View()
	if v2.NumDocs() != 2 || v2.Has("b") {
		t.Fatalf("view after delete wrong: %d docs", v2.NumDocs())
	}
	// Deleted-then-reingested doc is live again, at the end.
	m.Add(memdoc("b", "banana bread"))
	if got, want := ids(), []string{"c", "a", "b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("LiveDocs after re-add %v, want %v", got, want)
	}
	v3 := m.View()
	if d, _ := v3.Ordinal("b"); v3.PayloadAt(d) != "banana bread" {
		t.Fatalf("re-added payload %q", v3.PayloadAt(d))
	}
}

// TestMemtableViewMatchesBatchBuild: a sealed view's index must be
// bit-identical to a Builder fed the same live docs in the same order —
// the property flushing relies on.
func TestMemtableViewMatchesBatchBuild(t *testing.T) {
	m := NewMemtable()
	m.Add(memdoc("a", "x y z"))
	m.Add(memdoc("b", "x q"))
	m.Add(memdoc("a", "y y w"))
	m.Delete("b")
	m.Add(memdoc("c", "w z"))

	b := NewBuilder()
	for _, d := range m.LiveDocs() {
		if err := b.Add(d.ID, d.Tokens); err != nil {
			t.Fatal(err)
		}
	}
	want := b.Build()
	got := m.View().Seg.Index()
	if got.NumDocs() != want.NumDocs() || got.NumTerms() != want.NumTerms() {
		t.Fatalf("shape mismatch: %d/%d docs, %d/%d terms",
			got.NumDocs(), want.NumDocs(), got.NumTerms(), want.NumTerms())
	}
	for id := int32(0); id < int32(want.NumTerms()); id++ {
		if got.Term(id) != want.Term(id) {
			t.Fatalf("term %d: %q vs %q", id, got.Term(id), want.Term(id))
		}
		if !reflect.DeepEqual(got.PostingsByID(id), want.PostingsByID(id)) {
			t.Fatalf("postings of %q differ", want.Term(id))
		}
	}
}
