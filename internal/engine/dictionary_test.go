package engine

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/textsim"
)

// TestDictionaryFingerprint: the fingerprint names the base dictionary —
// equal for the same corpus however the engine came to be (built twice,
// served from a mapped image), unchanged by mutations that leave the base
// segment alone, different once a compaction folds a new term in.
func TestDictionaryFingerprint(t *testing.T) {
	a, b := buildEngine(t), buildEngine(t)
	fp := a.Dictionary().Fingerprint
	if int(fp.Terms) != a.Index().NumTerms() || fp.Terms == 0 {
		t.Fatalf("fingerprint counts %d terms, dictionary holds %d", fp.Terms, a.Index().NumTerms())
	}
	if got := b.Dictionary().Fingerprint; got != fp {
		t.Fatalf("two builds of one corpus: %+v vs %+v", fp, got)
	}
	mapped, err := OpenIndexFile(writeMappedEngine(t, a), Config{Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if got := mapped.Dictionary().Fingerprint; got != fp {
		t.Fatalf("mapped image: %+v, built %+v", got, fp)
	}

	if _, err := b.Ingest(Document{ID: "new", Title: "Quokka", Body: "a quokka is a small wallaby"}); err != nil {
		t.Fatal(err)
	}
	if got := b.Dictionary().Fingerprint; got != fp {
		t.Fatalf("a buffered document moved the base dictionary's fingerprint: %+v", got)
	}
	if _, err := b.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := b.Dictionary().Fingerprint; got == fp || int(got.Terms) != b.Index().NumTerms() {
		t.Fatalf("compaction folded new terms in, fingerprint %+v (was %+v)", got, fp)
	}

	// Same count, one different term: the hash tells them apart, and so
	// does a shifted boundary between neighbours.
	var x, y, z dictPrint
	if x.of([]string{"ab", "c"}) == y.of([]string{"a", "bc"}) || x.of(nil) == z.of([]string{"ab", "d"}) {
		t.Fatal("fingerprints of different dictionaries collide")
	}
}

// TestDictionaryVector: counting a shard hit's window terms under the
// dictionary gives the vector of the hit's snippet text.
func TestDictionaryVector(t *testing.T) {
	e, err := Build(smallCorpus(), Config{Shards: 2, SnippetWindow: 6})
	if err != nil {
		t.Fatal(err)
	}
	dict := e.Dictionary()
	ctx := context.Background()
	seen := 0
	var slab textsim.Slab
	for si := 0; si < 2; si++ {
		sh, err := e.SearchShard(ctx, si, []string{"leopard apple"}, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		if sh.Dict != dict.Fingerprint {
			t.Fatalf("shard hits carry %+v, the engine's dictionary is %+v", sh.Dict, dict.Fingerprint)
		}
		err = sh.Each(ctx, 0, true, func(h *ShardHit) {
			seen++
			want := e.IVectorOfText(h.Snippet())
			for _, slab := range []*textsim.Slab{nil, &slab} {
				if got := dict.Vector(h.Terms, slab); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: Vector(terms) = %+v, IVectorOfText(%q) = %+v", h.DocID, got, h.Snippet(), want)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		sh.Close()
		sh.Close() // idempotent
	}
	if seen != 4 {
		t.Fatalf("walked %d hits over both shards, want all 4 documents", seen)
	}
}
