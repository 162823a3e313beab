package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/index"
)

// writeMappedEngine exports e's base segment as a RIDX7 file.
func writeMappedEngine(t testing.TB, e *Engine) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "engine.ridx7")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.WriteMappedTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func sameResults(t *testing.T, want, got []Result, label string) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: results diverge\nwant %+v\ngot  %+v", label, want, got)
	}
}

// TestOpenIndexFileMapped: Build → WriteMappedTo → OpenIndexFile(Mmap)
// must reproduce searches (scores, ranks, snippets) bit for bit, without
// decoding a single posting block at open, and Close must unmap.
func TestOpenIndexFileMapped(t *testing.T) {
	base := index.ActiveMappings()
	src, err := Build(smallCorpus(), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := writeMappedEngine(t, src)

	before, _ := index.BlockIOStats()
	e, err := OpenIndexFile(path, Config{Shards: 2, Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	if after, _ := index.BlockIOStats(); after != before {
		t.Fatalf("mapped open decoded %d posting blocks, want 0", after-before)
	}
	if index.ActiveMappings() != base+1 {
		t.Fatalf("ActiveMappings = %d, want %d", index.ActiveMappings(), base+1)
	}
	if !e.Index().Mapped() {
		t.Fatal("engine index not mapped")
	}
	if e.NumDocs() != src.NumDocs() {
		t.Fatalf("NumDocs = %d, want %d", e.NumDocs(), src.NumDocs())
	}
	for _, q := range []string{"leopard tank army", "apple pie recipe", "mac os"} {
		sameResults(t, src.Search(q, 10), e.Search(q, 10), q)
	}
	// Shard-level parity too (the worker serving path).
	for si := 0; si < 2; si++ {
		want, got := shardWalk(t, src, si, "leopard", 5), shardWalk(t, e, si, "leopard", 5)
		if len(want) == 0 || !reflect.DeepEqual(want, got) {
			t.Fatalf("shard %d diverges:\nbuilt:  %+v\nmapped: %+v", si, want, got)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if index.ActiveMappings() != base {
		t.Fatalf("ActiveMappings = %d after Close, want %d", index.ActiveMappings(), base)
	}
}

type shardRow struct {
	Doc     int32
	DocID   string
	Score   float64
	Terms   []int32
	Snippet string
}

// shardWalk collects what one shard hands the frame encoder for a query:
// every hit's header, window terms and snippet.
func shardWalk(t *testing.T, e *Engine, si int, query string, k int) []shardRow {
	t.Helper()
	sh, err := e.SearchShard(context.Background(), si, []string{query}, []int{k})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	var out []shardRow
	err = sh.Each(context.Background(), 0, true, func(h *ShardHit) {
		out = append(out, shardRow{h.Doc, h.DocID, h.Score, append([]int32(nil), h.Terms...), h.Snippet()})
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestOpenIndexFileHeap: the same RIDX7 file without Config.Mmap is read
// onto a heap slab — identical results, no mapping.
func TestOpenIndexFileHeap(t *testing.T) {
	src, err := Build(smallCorpus(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := OpenIndexFile(writeMappedEngine(t, src), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Index().Mapped() {
		t.Fatal("heap open produced a mapped index")
	}
	sameResults(t, src.Search("leopard", 10), e.Search("leopard", 10), "heap v7")
}

// TestOpenIndexFileEngineStream: OpenIndexFile dispatches RENG3 epoch
// files through Load.
func TestOpenIndexFileEngineStream(t *testing.T) {
	src, err := Build(smallCorpus(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "engine.eng")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.SaveTo(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	e, err := OpenIndexFile(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	sameResults(t, src.Search("apple", 10), e.Search("apple", 10), "RENG3")
}

// TestMappedMutationLifecycle: a mapped engine accepts the full mutation
// lifecycle. Ingest/Delete/Flush work against the mapped base, and
// Compact folds everything onto the heap and unmaps the retired segment.
func TestMappedMutationLifecycle(t *testing.T) {
	base := index.ActiveMappings()
	src, err := Build(smallCorpus(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	path := writeMappedEngine(t, src)
	e, err := OpenIndexFile(path, Config{Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest(Document{ID: "snow", Title: "Snow leopard", Body: "The snow leopard lives in high mountain ranges of central Asia"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Delete("pie"); !ok {
		t.Fatal("Delete(pie) missed: mapped doc store not consulted for liveness")
	}
	if _, err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if index.ActiveMappings() != base+1 {
		t.Fatal("flush must keep the mapped base segment")
	}
	// Compaction recomputes collection statistics over the merged corpus,
	// so scores (and with them order) may legitimately shift — the stable
	// invariant is the live result SET.
	ids := func() map[string]bool {
		out := make(map[string]bool)
		for _, r := range e.Search("leopard", 0) {
			out[r.DocID] = true
		}
		return out
	}
	pre := ids()
	if _, err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if index.ActiveMappings() != base {
		t.Fatalf("ActiveMappings = %d after compaction, want %d (mapped base retired)", index.ActiveMappings(), base)
	}
	if e.Index().Mapped() {
		t.Fatal("compacted base still claims to be mapped")
	}
	if !reflect.DeepEqual(pre, ids()) {
		t.Fatal("result set changed across compaction")
	}
	// Bodies replayed through compaction must have been cloned off the
	// mapping: snippets still work after the unmap.
	if s := e.Snippet("cat", "leopard"); s == "" {
		t.Fatal("post-compaction snippet empty: body lost with the mapping")
	}
	e.Close()
}

// TestMappedUnmapRace: searches hammer a mapped engine while a mutator
// compacts it (retiring the mapped segment). The state pin plus iterator
// refcounts must hold the mapping until every in-flight reader drains —
// under -race this doubles as the memory-safety proof.
func TestMappedUnmapRace(t *testing.T) {
	base := index.ActiveMappings()
	src, err := Build(smallCorpus(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	path := writeMappedEngine(t, src)
	e, err := OpenIndexFile(path, Config{Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]bool)
	for _, r := range e.Search("leopard", 0) {
		want[r.DocID] = true
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				got := e.Search("leopard", 0)
				// Scores shift when the ingest lands (collection stats
				// change), so assert set membership, not order.
				if len(got) != len(want) {
					t.Errorf("mid-swap search returned %d hits, want %d", len(got), len(want))
					return
				}
				for _, r := range got {
					if !want[r.DocID] || r.Snippet == "" {
						t.Errorf("mid-swap hit %q (snippet %d bytes)", r.DocID, len(r.Snippet))
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		// No query term in the extra doc: the leopard result set stays
		// fixed across every epoch the searchers can observe.
		if _, err := e.Ingest(Document{ID: "extra", Body: "unrelated filler content about gardening"}); err != nil {
			t.Error(err)
		}
		if _, err := e.Compact(); err != nil {
			t.Error(err)
		}
	}()
	close(start)
	wg.Wait()
	e.Close()
	if index.ActiveMappings() != base {
		t.Fatalf("ActiveMappings = %d after drain, want %d", index.ActiveMappings(), base)
	}
}

// TestMappedHostileForward: forward-index bytes are not validated at
// open, so damage to one document's bytes must cost exactly that
// document its snippet and surrogate (both empty) and nothing else; and a
// payload that disagrees with its forward index about how many fields a
// document has must yield whatever text is there — never a panic.
func TestMappedHostileForward(t *testing.T) {
	src, err := Build(smallCorpus(), Config{SnippetWindow: 6})
	if err != nil {
		t.Fatal(err)
	}
	want := src.Search("leopard", 0)
	if len(want) < 3 {
		t.Fatalf("fixture retrieves %d documents", len(want))
	}
	good, err := os.ReadFile(writeMappedEngine(t, src))
	if err != nil {
		t.Fatal(err)
	}
	u64 := func(b []byte, at int) int { return int(binary.LittleEndian.Uint64(b[at:])) }
	const secFwdOffs, secFwdBlob = 14, 15 // index/codec_v7.go's section table
	offsAt, blobAt := u64(good, 104+16*secFwdOffs), u64(good, 104+16*secFwdBlob)
	base := src.cur.Load().segs[0]
	ord, _ := base.docs.Ordinal(want[1].DocID)
	victim := int(ord)
	open := func(b []byte) *Engine {
		t.Helper()
		path := filepath.Join(t.TempDir(), "hostile.ridx7")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := OpenIndexFile(path, Config{SnippetWindow: 6, Mmap: true})
		if err != nil {
			t.Fatalf("arena damage must pass the structural open: %v", err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}

	bad := append([]byte(nil), good...)
	for i := blobAt + u64(bad, offsAt+8*victim) + 1; i < blobAt+u64(bad, offsAt+8*(victim+1)); i++ {
		bad[i] = 0xff // non-terminating varints after the field count
	}
	e := open(bad)
	got := e.Search("leopard", 0)
	cands, err := e.Candidates(context.Background(), []string{"leopard"}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	defer cands.Close()
	vecs := candidateVectors(cands)[0]
	for i, r := range got {
		c, iv := cands.Lists[0][i], vecs[i]
		if r.DocID != want[i].DocID || r.Score != want[i].Score || c.DocID != r.DocID {
			t.Fatalf("rank %d: retrieval changed: %+v vs %+v", i+1, r, want[i])
		}
		if i == 1 {
			if r.Snippet != "" || iv.Len() != 0 || iv.Norm() != 0 {
				t.Fatalf("damaged document served snippet %q, vector %v", r.Snippet, iv)
			}
			continue
		}
		if r.Snippet != want[i].Snippet || !ivecEqual(iv, e.IVectorOfText(r.Snippet)) {
			t.Fatalf("undamaged document %s: snippet %q (want %q) or vector differs", r.DocID, r.Snippet, want[i].Snippet)
		}
	}

	// A payload shorter than its forward index says: the window's fields
	// that exist are served, the surrogate still comes from the forward
	// index, nothing reads past the text.
	var img bytes.Buffer
	if _, err := base.seg.WriteMapped(&img, func(d int32) string {
		if int(d) == victim {
			return "leopard  truncated"
		}
		return base.docs.Text(d).payload()
	}); err != nil {
		t.Fatal(err)
	}
	e = open(img.Bytes())
	for i, r := range e.Search("leopard", 0) {
		if i == 1 {
			if r.DocID != want[1].DocID || !strings.HasPrefix("leopard truncated", r.Snippet) {
				t.Fatalf("short payload served %q for %s", r.Snippet, r.DocID)
			}
		} else if r.Snippet != want[i].Snippet {
			t.Fatalf("document %s: snippet %q, want %q", r.DocID, r.Snippet, want[i].Snippet)
		}
	}
}

// TestWindowUntrustedFieldCount: the field count F a forward entry claims
// is not checked against anything — empty fields cost no byte — so a
// document may claim 2³⁰ fields over one occurrence. window must neither
// size anything by F nor step through it: the window it picks ends at F,
// holds the one occurrence, and a warm scratch makes it allocate nothing.
func TestWindowUntrustedFieldCount(t *testing.T) {
	src, err := Build([]Document{{ID: "huge", Body: "alpha gamma"}, {ID: "other", Body: "beta gamma"}}, Config{SnippetWindow: 5})
	if err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(writeMappedEngine(t, src))
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the arena — the image's last section — with document 0 as
	// F = 2³⁰, N = 1, and "alpha" (term 0) in the last field.
	const secFwdOffs, secFwdBlob = 14, 15 // index/codec_v7.go's section table
	const nf = 1 << 30
	u64 := func(at int) int { return int(binary.LittleEndian.Uint64(img[at:])) }
	offsAt, blobAt := u64(104+16*secFwdOffs), u64(104+16*secFwdBlob)
	if blobAt+u64(104+16*secFwdBlob+8) != len(img) {
		t.Fatal("the forward arena is not the image's last section")
	}
	arena := binary.AppendUvarint(nil, nf)
	arena = binary.AppendUvarint(arena, 1)
	arena = binary.AppendUvarint(arena, (nf-1)<<1)
	arena = binary.AppendUvarint(arena, 1)
	binary.LittleEndian.PutUint64(img[offsAt+8:], uint64(len(arena)))
	arena = append(arena, img[blobAt+u64(offsAt+8):]...) // document 1 as written
	binary.LittleEndian.PutUint64(img[offsAt+16:], uint64(len(arena)))
	img = append(img[:blobAt], arena...)
	binary.LittleEndian.PutUint64(img[104+16*secFwdBlob+8:], uint64(len(arena)))
	binary.LittleEndian.PutUint64(img[8+8*10:], uint64(len(img))) // fileSize
	path := filepath.Join(t.TempDir(), "huge.ridx7")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := OpenIndexFile(path, Config{SnippetWindow: 5, Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	sg := e.cur.Load().segs[0]
	q := termSet(sg.seg.Index(), []string{"alpha"})
	sc := new(fwdScratch)
	lo, hi, terms := sg.window(0, q, 5, sc)
	if lo != nf-5 || hi != nf || !reflect.DeepEqual(terms, []int32{0}) {
		t.Fatalf("window [%d,%d) holding %v, want [%d,%d) holding [0]", lo, hi, terms, nf-5, nf)
	}
	if allocs := testing.AllocsPerRun(100, func() { sg.window(0, q, 5, sc) }); allocs != 0 {
		t.Fatalf("window on warm scratch allocated %v times per call", allocs)
	}
	// The surrogate still counts the occurrence; the text has no such
	// field, so the snippet is empty.
	cands, err := e.Candidates(context.Background(), []string{"alpha"}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	defer cands.Close()
	if len(cands.Lists[0]) != 1 || !ivecEqual(cands.Vector(0, 0, nil), e.IVectorOfText("alpha")) {
		t.Fatalf("candidates %+v: vector differs from IVectorOfText(\"alpha\")", cands.Lists)
	}
	if got := e.Snippet("huge", "alpha"); got != "" {
		t.Fatalf("snippet %q of a window past the text", got)
	}
}

// TestOpenIndexFileRefusesIncompleteImage: the engine serves snippets and
// surrogates out of an image's forward-index section and compacts from
// its payload section, so OpenIndexFile refuses an RIDX7 image lacking
// either — heap or mapped — with an error that wraps index.ErrBadFormat
// and names what is missing, releasing any mapping it made and leaving
// the file as it was. (A payload-less image used to open, and the next
// Compact re-analyzed its empty bodies: every sealed document vanished
// from search.)
func TestOpenIndexFileRefusesIncompleteImage(t *testing.T) {
	e, err := Build(smallCorpus(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	var complete bytes.Buffer
	if _, err := e.WriteMappedTo(&complete); err != nil {
		t.Fatal(err)
	}
	e.Close()
	// write stores the complete image with its header flags (bit 0
	// payload, bit 1 forward index, bit 2 term order) set to flags.
	write := func(t *testing.T, flags uint64) string {
		img := bytes.Clone(complete.Bytes())
		binary.LittleEndian.PutUint64(img[16:], flags)
		path := filepath.Join(t.TempDir(), "incomplete.ridx7")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct {
		name    string
		flags   uint64
		missing string
	}{
		{"forward-less", 1, "forward-index section"},
		{"payload-less", 6, "payload section"},
		{"both", 0, "forward-index and payload sections"},
	}
	for _, c := range cases {
		for _, mmap := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/mmap=%v", c.name, mmap), func(t *testing.T) {
				path := write(t, c.flags)
				before, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				mappings := index.ActiveMappings()
				e, err := OpenIndexFile(path, Config{Mmap: mmap})
				if err == nil {
					e.Close()
					t.Fatal("incomplete image opened")
				}
				if !errors.Is(err, index.ErrBadFormat) || !strings.Contains(err.Error(), "lacks its "+c.missing) {
					t.Fatalf("err = %v; want index.ErrBadFormat naming the %s", err, c.missing)
				}
				if got := index.ActiveMappings(); got != mappings {
					t.Fatalf("ActiveMappings = %d after the refusal, want %d", got, mappings)
				}
				if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
					t.Fatalf("image changed by the refused open (err %v)", err)
				}
			})
		}
	}
}
