package engine

import (
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/index"
)

// OpenIndexFile constructs a serving engine from either persisted format
// the system writes, dispatching on the magic:
//
//	RENG3  engine epoch files (SaveTo, the WAL) — read through Load:
//	       the full lifecycle state, every segment an RIDX7 image on an
//	       owned heap slab.
//	RIDX7  an index image (buildindex, WriteMappedTo). With cfg.Mmap the
//	       file is mmap'ed and served in place: no heap copy of the block
//	       region, O(dictionary) open cost — the instant-startup path
//	       workers use. Without cfg.Mmap it is read onto a heap slab and
//	       served the same way.
//
// Anything else is an error. An RIDX7 image always carries the
// forward-index section the engine cuts snippets and surrogates from and
// the payload section it compacts from; the index package refuses one
// without them. The analyzer and model come from cfg, exactly as for
// Load, and must match the ones used at build time; a positive
// cfg.Shards resegments the loaded partition, 0 keeps the one the file
// records.
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

// engineAroundIndex wraps a loaded (possibly mapped) segmented index in a
// quiet single-segment engine whose document store is the index's payload
// section.
func engineAroundIndex(cfg Config, seg *index.Segmented) (*Engine, error) {
	if cfg.Shards > 0 {
		// O(shards) boundary rebuild over the same physical index — cheap
		// even when mapped.
		seg = seg.Resegment(cfg.Shards)
	}
	e := &Engine{cfg: cfg}
	e.cur.Store(freshState(cfg, seg, &textStore{idx: seg.Index()}, 0))
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
	// segment keeps answering searches throughout). Advisory: errors are
	// ignored.
	_ = idx.Advise(index.AdviseSequential)
	defer func() { _ = idx.Advise(index.AdviseRandom) }()
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
