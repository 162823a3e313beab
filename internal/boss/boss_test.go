package boss

import (
	"strings"
	"testing"

	"repro/internal/engine"
)

func client(t *testing.T) *Client {
	t.Helper()
	docs := []engine.Document{
		{ID: "osx", Title: "Mac OS X Leopard", Body: "Apple released the Leopard operating system for Mac computers with new desktop features"},
		{ID: "tank", Title: "Leopard 2 tank", Body: "The Leopard 2 main battle tank of the German army with composite armor and smoothbore gun"},
		{ID: "cat", Title: "Leopard", Body: "The leopard is a wild cat species found in Africa and Asia with a spotted coat"},
	}
	e, err := engine.Build(docs, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return New(e)
}

func TestSearchShape(t *testing.T) {
	c := client(t)
	res := c.Search("leopard", 10)
	if len(res) != 3 {
		t.Fatalf("results = %d", len(res))
	}
	for i, r := range res {
		if r.Rank != i+1 {
			t.Errorf("rank[%d] = %d", i, r.Rank)
		}
		if r.Abstract == "" {
			t.Errorf("empty abstract for %s", r.Title)
		}
		if !strings.HasPrefix(r.URL, "http://boss.example/") {
			t.Errorf("URL = %q", r.URL)
		}
	}
}

func TestSearchTruncates(t *testing.T) {
	c := client(t)
	if got := c.Search("leopard", 2); len(got) != 2 {
		t.Errorf("n=2 returned %d", len(got))
	}
	if got := c.Search("nosuchterm", 5); len(got) != 0 {
		t.Errorf("alien query returned %d results", len(got))
	}
}

func TestCandidateDocs(t *testing.T) {
	c := client(t)
	res := c.Search("leopard", 3)
	docs := c.CandidateDocs(res)
	if len(docs) != 3 {
		t.Fatalf("docs = %d", len(docs))
	}
	if docs[0].Rel != 1 {
		t.Errorf("top Rel = %f, want 1", docs[0].Rel)
	}
	if docs[2].Rel >= docs[0].Rel {
		t.Error("relevance not decaying with rank")
	}
	for _, d := range docs {
		if d.IVec.IsZero() {
			t.Errorf("zero vector for %s", d.ID)
		}
	}
}

func TestSpecResults(t *testing.T) {
	c := client(t)
	res := c.Search("leopard tank", 2)
	specs := c.SpecResults(res)
	if len(specs) != 2 {
		t.Fatalf("specs = %d", len(specs))
	}
	if specs[0].Rank != 1 || specs[0].ID != res[0].Title {
		t.Errorf("spec result = %+v", specs[0])
	}
}
