package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/index"
)

// Crash-consistency tests: a writer that dies mid-stream must never
// corrupt what a reader later sees, and a process restart must recover
// the newest durable epoch — never a torn or partial one.

// failingWriter errors after n bytes, simulating a crash mid-write.
type failingWriter struct {
	n       int
	written int
}

var errDiskGone = errors.New("simulated crash: disk gone")

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		allowed := w.n - w.written
		if allowed < 0 {
			allowed = 0
		}
		w.written += allowed
		return allowed, errDiskGone
	}
	w.written += len(p)
	return len(p), nil
}

// midLifecycleEngine builds an engine that exercises every RENG3 section:
// multiple sealed segments, tombstones, and a non-empty memtable.
func midLifecycleEngine(t testing.TB) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	var docs []Document
	for i := 0; i < 12; i++ {
		docs = append(docs, liveDoc(rng, fmt.Sprintf("d%04d", i), 0))
	}
	e, err := Build(docs, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 12; i < 18; i++ {
		if _, err := e.Ingest(liveDoc(rng, fmt.Sprintf("d%04d", i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Delete("d0003"); !ok {
		t.Fatal("delete d0003 missed")
	}
	if _, err := e.Ingest(liveDoc(rng, "d0005", 7)); err != nil { // supersede a sealed doc
		t.Fatal(err)
	}
	if _, err := e.Ingest(liveDoc(rng, "d0100", 0)); err != nil { // brand-new, memtable only
		t.Fatal(err)
	}
	return e
}

// TestSaveToFailingWriter cuts the save stream at every prefix length:
// SaveTo must surface the write error (never panic, never succeed), and
// Load of the truncated prefix must fail cleanly too.
func TestSaveToFailingWriter(t *testing.T) {
	e := midLifecycleEngine(t)
	var full bytes.Buffer
	if err := e.SaveTo(&full); err != nil {
		t.Fatal(err)
	}
	if e.Live().MemDocs == 0 || e.Live().Tombstones == 0 || e.Live().Segments < 2 {
		t.Fatalf("fixture is not mid-lifecycle: %+v", e.Live())
	}
	for cut := 0; cut < full.Len(); cut += 1 + cut/10 {
		if err := e.SaveTo(&failingWriter{n: cut}); err == nil {
			t.Fatalf("SaveTo with writer dying at byte %d reported success", cut)
		}
		if _, err := Load(bytes.NewReader(full.Bytes()[:cut]), Config{}); err == nil {
			t.Fatalf("Load of %d-byte truncated stream reported success", cut)
		}
	}
	// The untruncated stream round-trips to an identical search surface.
	e2, err := Load(bytes.NewReader(full.Bytes()), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{liveVocab[0], "uniqd0005", "uniqd0003", "uniqd0100"} {
		if got, want := e2.Search(q, 10), e.Search(q, 10); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %q after reload: %+v, want %+v", q, got, want)
		}
	}
	// Flushes/Compactions are process-lifetime counters, not persisted.
	got, want := e2.Live(), e.Live()
	got.Flushes, got.Compactions = want.Flushes, want.Compactions
	if got != want {
		t.Fatalf("LiveStats after reload: %+v, want %+v", got, want)
	}
}

// TestWALRecoversNewestValidEpoch seals several epochs into a WAL dir,
// then corrupts the newest files in the ways a crash can leave them —
// pure garbage, a truncated tail — and checks a rebuild adopts the
// newest epoch that still parses.
func TestWALRecoversNewestValidEpoch(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(5))
	var docs []Document
	for i := 0; i < 10; i++ {
		docs = append(docs, liveDoc(rng, fmt.Sprintf("d%04d", i), 0))
	}
	cfg := Config{WALDir: dir}
	e, err := Build(docs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Epoch A: ingest + flush. Epoch B: delete + flush.
	if _, err := e.Ingest(liveDoc(rng, "d0100", 0)); err != nil {
		t.Fatal(err)
	}
	epochA, err := e.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Delete("d0002"); !ok {
		t.Fatal("delete d0002 missed")
	}
	epochB, err := e.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if epochB <= epochA {
		t.Fatalf("epochs not monotonic: flush gave %d then %d", epochA, epochB)
	}
	wantB := e.Search(liveVocab[0], 10)

	// Restart: the newest epoch (B) is intact and must be adopted.
	r1, err := Build(docs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Epoch() != epochB {
		t.Fatalf("recovered epoch %d, want %d", r1.Epoch(), epochB)
	}
	if got := r1.Search(liveVocab[0], 10); !reflect.DeepEqual(got, wantB) {
		t.Fatalf("recovered search differs from pre-crash epoch B")
	}
	if len(r1.Search("uniqd0002", 5)) != 0 {
		t.Fatal("doc deleted in epoch B resurfaced after recovery")
	}

	// Corrupt epoch B's file with garbage: recovery must fall back to A.
	fileB := filepath.Join(dir, epochFileName(epochB))
	if err := os.WriteFile(fileB, []byte("not an engine stream at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	r2, err := Build(docs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Epoch() != epochA {
		t.Fatalf("after garbage newest file: recovered epoch %d, want fallback %d", r2.Epoch(), epochA)
	}
	if len(r2.Search("uniqd0002", 5)) == 0 {
		t.Fatal("epoch A should still contain d0002 (deleted only in B)")
	}

	// Truncate epoch B instead (torn write): same fallback.
	good, err := os.ReadFile(filepath.Join(dir, epochFileName(epochA)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fileB, good[:len(good)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	r3, err := Build(docs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Epoch() != epochA {
		t.Fatalf("after truncated newest file: recovered epoch %d, want %d", r3.Epoch(), epochA)
	}

	// With every file corrupted, recovery gives up and the engine starts
	// from the freshly built state (epoch 0 lineage), not an error.
	entries, err := filepath.Glob(filepath.Join(dir, "epoch-*.eng"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range entries {
		if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r4, err := Build(docs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r4.NumDocs(), len(docs); got != want {
		t.Fatalf("fresh start after total WAL loss: %d docs, want %d", got, want)
	}
}

// TestWALRefusesTextOrderEpoch: an epoch file whose segment images carry
// the text-order forward arena of earlier builds (RIDX7 flag bit 1
// without bit 2) is not a torn write to fall back past. Opening the
// directory must fail with index.ErrTextOrderForward — whether the file
// is the newest of several or sorts above a fresh start's epoch — and
// leave every file as it was.
func TestWALRefusesTextOrderEpoch(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(11))
	var docs []Document
	for i := 0; i < 10; i++ {
		docs = append(docs, liveDoc(rng, fmt.Sprintf("d%04d", i), 0))
	}
	cfg := Config{WALDir: dir}
	e, err := Build(docs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest(liveDoc(rng, "d0100", 0)); err != nil {
		t.Fatal(err)
	}
	newest, err := e.Flush()
	if err != nil {
		t.Fatal(err)
	}
	textOrder := func(name string) {
		t.Helper()
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		images := 0
		for at := 0; ; {
			i := bytes.Index(b[at:], []byte(index.MagicMapped+"\x00\x00"))
			if i < 0 {
				break
			}
			at += i
			flags := binary.LittleEndian.Uint64(b[at+16:])
			binary.LittleEndian.PutUint64(b[at+16:], flags&^(1<<2))
			images++
			at++
		}
		if images == 0 {
			t.Fatalf("%s holds no segment image", name)
		}
		if err := os.WriteFile(name, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	snapshot := func() map[string]string {
		t.Helper()
		names, err := filepath.Glob(filepath.Join(dir, "epoch-*.eng"))
		if err != nil {
			t.Fatal(err)
		}
		files := make(map[string]string)
		for _, name := range names {
			b, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			files[name] = string(b)
		}
		return files
	}
	refused := func(what string) {
		t.Helper()
		before := snapshot()
		if _, err := Build(docs, cfg); !errors.Is(err, index.ErrTextOrderForward) {
			t.Fatalf("%s: Build error %v, want index.ErrTextOrderForward", what, err)
		}
		if after := snapshot(); !reflect.DeepEqual(after, before) {
			t.Fatalf("%s: a refused open changed the WAL directory: %d files before, %d after", what, len(before), len(after))
		}
	}

	// The newest of two epochs is in the old layout.
	textOrder(filepath.Join(dir, epochFileName(newest)))
	refused("newest epoch in text order")

	// Only an old-layout file, numbered above the epoch a fresh start
	// would write: the open must neither start fresh nor prune it.
	old := filepath.Join(dir, epochFileName(newest))
	oldBytes, err := os.ReadFile(old)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, epochFileName(40)), oldBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	refused("lone text-order epoch above a fresh start")
}

// TestWALPruneKeepsWhatItWrote: epoch files that do not parse and sort
// above everything a fresh start writes must not make the prune delete
// the new files. The engine starts fresh, seals two more epochs, and a
// restart recovers the newest of them; the unreadable files stay.
func TestWALPruneKeepsWhatItWrote(t *testing.T) {
	dir := t.TempDir()
	junk := []string{filepath.Join(dir, epochFileName(40)), filepath.Join(dir, epochFileName(41))}
	for _, name := range junk {
		if err := os.WriteFile(name, []byte("not an engine stream at all"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(13))
	var docs []Document
	for i := 0; i < 8; i++ {
		docs = append(docs, liveDoc(rng, fmt.Sprintf("d%04d", i), 0))
	}
	cfg := Config{WALDir: dir}
	e, err := Build(docs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh := e.Epoch()
	var sealed []uint64
	for _, id := range []string{"d0100", "d0101"} {
		if _, err := e.Ingest(liveDoc(rng, id, 0)); err != nil {
			t.Fatal(err)
		}
		epoch, err := e.Flush()
		if err != nil {
			t.Fatal(err)
		}
		sealed = append(sealed, epoch)
	}
	if sealed[1] >= 40 {
		t.Fatalf("sealed epoch %d does not sort below the junk files", sealed[1])
	}
	names, err := filepath.Glob(filepath.Join(dir, "epoch-*.eng"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Join(dir, epochFileName(sealed[0])), filepath.Join(dir, epochFileName(sealed[1])), junk[0], junk[1]}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("WAL dir after a fresh start at epoch %d and seals %v: %v, want %v", fresh, sealed, names, want)
	}
	r, err := Build(docs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Epoch() != sealed[1] {
		t.Fatalf("recovered epoch %d, want %d", r.Epoch(), sealed[1])
	}
	for _, id := range []string{"d0100", "d0101"} {
		if len(r.Search("uniq"+id, 5)) == 0 {
			t.Fatalf("%s, sealed before the restart, is gone after it", id)
		}
	}
}

// TestWALDirSyncFailure: a seal whose directory sync fails is not
// durable — its rename may not survive a crash — so Flush must return the
// error, leave the epoch where it was, and prune nothing.
func TestWALDirSyncFailure(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(17))
	var docs []Document
	for i := 0; i < 8; i++ {
		docs = append(docs, liveDoc(rng, fmt.Sprintf("d%04d", i), 0))
	}
	e, err := Build(docs, Config{WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest(liveDoc(rng, "d0100", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	files := func() []string {
		t.Helper()
		names, err := filepath.Glob(filepath.Join(dir, "epoch-*"))
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	before := files()
	if len(before) != 2 {
		t.Fatalf("WAL dir after one seal: %v, want the fresh epoch and the seal", before)
	}

	defer func(orig func(string) error) { syncDir = orig }(syncDir)
	syncDir = func(string) error { return errDiskGone }
	if _, err := e.Ingest(liveDoc(rng, "d0101", 0)); err != nil {
		t.Fatal(err)
	}
	epoch := e.Epoch()
	if _, err := e.Flush(); !errors.Is(err, errDiskGone) {
		t.Fatalf("Flush with a failing directory sync: err = %v, want %v", err, errDiskGone)
	}
	if e.Epoch() != epoch {
		t.Fatalf("epoch moved %d -> %d on a seal that is not durable", epoch, e.Epoch())
	}
	if after := files(); !reflect.DeepEqual(after, before) {
		t.Fatalf("WAL dir after the failed seal: %v, want %v untouched", after, before)
	}
}

// TestWALRecoveryStopsOnUnreadableEpoch: an epoch file the file system
// cannot read is not a torn write to fall back past. A directory named
// like a newer epoch file fails every read with EISDIR, even for root:
// the next Build over the WAL dir must fail naming it, not quietly
// recover the older epoch, and leave every file where it was.
func TestWALRecoveryStopsOnUnreadableEpoch(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(23))
	var docs []Document
	for i := 0; i < 8; i++ {
		docs = append(docs, liveDoc(rng, fmt.Sprintf("d%04d", i), 0))
	}
	cfg := Config{WALDir: dir}
	e, err := Build(docs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, epochFileName(e.Epoch()+1))
	if err := os.Mkdir(bad, 0o755); err != nil {
		t.Fatal(err)
	}
	before, err := filepath.Glob(filepath.Join(dir, "epoch-*"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Build(docs, cfg)
	var pe *fs.PathError
	if err == nil || !errors.As(err, &pe) || !strings.Contains(err.Error(), bad) {
		t.Fatalf("Build over an unreadable newest epoch: engine %v, err = %v; want a *fs.PathError naming %s", r != nil, err, bad)
	}
	if after, _ := filepath.Glob(filepath.Join(dir, "epoch-*")); !reflect.DeepEqual(after, before) {
		t.Fatalf("WAL dir after the refused open: %v, want %v", after, before)
	}
}

// TestWALDirCreationIsDurable: a WAL directory Build creates, parents
// included, is made durable before Build returns — each created
// directory's parent is fsynced — while an existing directory syncs no
// parent.
func TestWALDirCreationIsDurable(t *testing.T) {
	root := t.TempDir()
	docs := []Document{{ID: "a", Body: "alpha beta"}, {ID: "b", Body: "beta gamma"}}
	var synced []string
	orig := syncDir
	defer func() { syncDir = orig }()
	syncDir = func(dir string) error {
		synced = append(synced, dir)
		return orig(dir)
	}

	wal := filepath.Join(root, "a", "b")
	if _, err := Build(docs, Config{WALDir: wal}); err != nil {
		t.Fatal(err)
	}
	for _, parent := range []string{root, filepath.Join(root, "a")} {
		if !slices.Contains(synced, parent) {
			t.Fatalf("created %s but synced only %v: %s not synced", wal, synced, parent)
		}
	}

	existing := t.TempDir()
	synced = nil
	if _, err := Build(docs, Config{WALDir: existing}); err != nil {
		t.Fatal(err)
	}
	for _, d := range synced {
		if d != existing {
			t.Fatalf("existing WAL dir %s: synced %v, want the directory itself only", existing, synced)
		}
	}
}

// TestFlushFailureKeepsServing removes the WAL directory out from under
// the engine: the seal cannot become durable, so Flush must fail WITHOUT
// swapping state — the buffered document stays searchable, the epoch does
// not advance — and once the directory returns, Flush succeeds.
func TestFlushFailureKeepsServing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	rng := rand.New(rand.NewSource(9))
	var docs []Document
	for i := 0; i < 8; i++ {
		docs = append(docs, liveDoc(rng, fmt.Sprintf("d%04d", i), 0))
	}
	e, err := Build(docs, Config{WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest(liveDoc(rng, "d0200", 0)); err != nil {
		t.Fatal(err)
	}
	epochBefore := e.Epoch()
	memBefore := e.Live().MemDocs

	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Flush(); err == nil {
		t.Fatal("Flush with missing WAL dir reported success")
	}
	if e.Epoch() != epochBefore {
		t.Fatalf("failed flush advanced the epoch: %d -> %d", epochBefore, e.Epoch())
	}
	if got := e.Live().MemDocs; got != memBefore {
		t.Fatalf("failed flush changed the memtable: %d docs -> %d", memBefore, got)
	}
	if len(e.Search("uniqd0200", 5)) == 0 {
		t.Fatal("buffered doc unsearchable after failed flush")
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Flush(); err != nil {
		t.Fatalf("Flush after restoring WAL dir: %v", err)
	}
	if e.Epoch() <= epochBefore {
		t.Fatal("successful flush did not advance the epoch")
	}
	if len(e.Search("uniqd0200", 5)) == 0 {
		t.Fatal("doc lost across the recovered flush")
	}
	// Exactly one durable epoch file exists for the recovered seal.
	files, err := filepath.Glob(filepath.Join(dir, "epoch-*.eng"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("WAL dir has %d epoch files, want 1: %v", len(files), files)
	}
}
