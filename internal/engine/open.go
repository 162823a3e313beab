package engine

import (
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/index"
)

// OpenIndexFile constructs a serving engine from any persisted file the
// system writes, dispatching on the magic:
//
//	RENG2        engine streams — decoded through Load (full lifecycle
//	             state, heap-owned).
//	RIDX7        the mapped layout. With cfg.Mmap the file is mmap'ed and
//	             served in place: no posting decode, no heap copy of the
//	             block region, O(dictionary) open cost — the instant-
//	             startup path workers use. Without cfg.Mmap it is decoded
//	             onto the heap like any other index stream.
//	RIDX5/RIDX6  index streams, decoded onto the heap.
//
// Index files carry no analyzed corpus, so the engine serves bodies from
// the file's payload section when present (RIDX7) and empty snippets
// otherwise. The analyzer and model come from cfg, exactly as for Load,
// and must match the ones used at build time. cfg.Shards resegments the
// loaded partition; posting-layout overrides (BlockSize,
// DisableCompression) are ignored for index files — the file's layout is
// authoritative (relayout with buildindex instead).
func OpenIndexFile(path string, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var magic [6]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("engine: %s: %w", path, err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	if string(magic[:]) == engineMagic {
		defer f.Close()
		return Load(f, cfg)
	}
	if cfg.Mmap && string(magic[:]) == index.MagicMapped {
		f.Close()
		seg, err := index.OpenMapped(path)
		if err != nil {
			return nil, err
		}
		return engineAroundIndex(cfg, seg)
	}
	defer f.Close()
	seg, err := index.ReadSegmented(f)
	if err != nil {
		return nil, err
	}
	return engineAroundIndex(cfg, seg)
}

// advise applies a madvise access-pattern hint to idx's backing mapping
// unless the engine was configured with DisableMadvise. Hints are
// advisory — errors are ignored — and on owned (heap) indexes or
// platforms without madvise the call is a no-op.
func (e *Engine) advise(idx *index.Index, a index.Advice) {
	if e.cfg.DisableMadvise {
		return
	}
	_ = idx.Advise(a)
}

// engineAroundIndex wraps a loaded (possibly mapped) segmented index in a
// quiet single-segment engine whose document store is the index's payload
// section.
func engineAroundIndex(cfg Config, seg *index.Segmented) (*Engine, error) {
	if cfg.Shards > 0 {
		// O(shards) boundary rebuild over the same physical index — cheap
		// even when mapped, unlike a posting relayout.
		seg = seg.Resegment(cfg.Shards)
	}
	installTables(cfg, seg.Index())
	if cfg.DisableMadvise {
		// OpenMapped defaults the region to MADV_RANDOM (the serving
		// pattern); an engine opting out restores normal readahead.
		_ = seg.Index().Advise(index.AdviseNormal)
	}
	e := &Engine{cfg: cfg}
	e.cur.Store(freshState(cfg, seg, &mappedDocs{idx: seg.Index()}, 0))
	// The state took its own reference on the mapping; drop the open one
	// so the last unpin (or last live iterator) unmaps.
	seg.Close()
	if err := e.openWAL(); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

// WriteMappedTo serializes the engine's base segment — postings, shard
// partition, max-score tables, raw bodies, forward index — as one RIDX7
// mapped-layout
// file that OpenIndexFile (with Config.Mmap) serves in place. The state
// must be quiescent: a single sealed segment with no buffered documents
// and no tombstones (Flush + Compact first). Returns the bytes written.
func (e *Engine) WriteMappedTo(w io.Writer) (int64, error) {
	st := e.snapshot()
	defer st.unpin()
	mv := st.mem.View()
	if !st.quiet(mv) || len(st.dead) != 0 {
		return 0, errors.New("engine: mapped export requires a quiescent single-segment state (Flush and Compact first)")
	}
	sg := st.segs[0]
	idx := sg.seg.Index()
	// The export is one sequential pass over postings and payload: hint
	// readahead for the scan, then restore the serving pattern (the
	// segment keeps answering searches throughout).
	e.advise(idx, index.AdviseSequential)
	defer e.advise(idx, index.AdviseRandom)
	return sg.seg.WriteMapped(w, func(d int32) string { return sg.docs.Text(d).payload() })
}

// Close retires the engine: the current state's reference is dropped, so
// once in-flight pinned searches and their iterators finish, any mapped
// segments are unmapped. Searching after Close is a bug (on a mapped
// engine the pages may be gone). Idempotent; heap-backed engines only
// drop references to garbage-collected memory.
func (e *Engine) Close() error {
	if e.closed.CompareAndSwap(false, true) {
		e.cur.Load().unpin()
	}
	return nil
}
