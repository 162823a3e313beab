package engine

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/index"
	"repro/internal/textsim"
)

// Engine persistence: an engine state can be written to a single stream
// and reloaded without re-analyzing the corpus. The format, RENG2, is the
// full segment lifecycle state —
//
//	magic "RENG2\n"
//	index manifest (index codec RIDX6: epoch, segments, tombstones)
//	per segment, per doc in internal order: bodyLen, bodyBytes
//	  (doc IDs come from the segment's index, so only bodies repeat)
//	memtable: numDocs, then per doc: idLen, idBytes, bodyLen, bodyBytes
//	  (tokens are re-derived by analysis at load time)
//
// Any other magic — the RENG1 of early builds included, which nothing has
// written since the lifecycle landed — is ErrBadEngineFormat. The
// weighting model and analyzer are code, not data: the loader supplies
// them through Config exactly as Build does. The IDF table and term
// lexicon are reconstructed from the base index at load time (the codec's
// sorted-dictionary invariant makes the lexicon a zero-copy wrap).

const engineMagic = "RENG2\n"

// ErrBadEngineFormat reports a corrupt or foreign engine stream.
var ErrBadEngineFormat = errors.New("engine: bad engine format")

// SaveTo serializes the engine's current state — segments, tombstones and
// buffered memtable documents included. Shard partitions and posting
// layouts survive the round trip (Load keeps them unless Config
// overrides).
func (e *Engine) SaveTo(w io.Writer) error {
	return saveState(e.cur.Load(), w)
}

func saveState(st *state, w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(engineMagic); err != nil {
		return err
	}
	man := &index.Manifest{Epoch: st.epoch}
	for _, sg := range st.segs {
		man.Segments = append(man.Segments, sg.seg)
	}
	for id := range st.dead {
		man.Tombstones = append(man.Tombstones, id)
	}
	sort.Strings(man.Tombstones)
	if _, err := man.WriteTo(bw); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	writeString := func(s string) error {
		if err := writeUvarint(uint64(len(s))); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	// Per-segment bodies in internal doc order: the stream is canonical
	// and IDs need not repeat (the index carries them).
	for _, sg := range st.segs {
		idx := sg.seg.Index()
		for d := int32(0); d < int32(idx.NumDocs()); d++ {
			if err := writeString(sg.docs.Text(d).payload()); err != nil {
				return err
			}
		}
	}
	docs := st.mem.LiveDocs()
	if err := writeUvarint(uint64(len(docs))); err != nil {
		return err
	}
	for _, d := range docs {
		if err := writeString(d.ID); err != nil {
			return err
		}
		if err := writeString(d.Payload); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load reconstructs an engine written by SaveTo. cfg supplies the model
// and analyzer (they must match the ones used at build time for query
// analysis to agree with the stored index).
func Load(r io.Reader, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	st, err := loadState(r, cfg)
	if err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg}
	e.cur.Store(st)
	if err := e.openWAL(); err != nil {
		return nil, err
	}
	return e, nil
}

func loadState(r io.Reader, cfg Config) (*state, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(engineMagic))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEngineFormat, err)
	}
	if string(head) != engineMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadEngineFormat, head)
	}
	if _, err := br.Discard(len(engineMagic)); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEngineFormat, err)
	}
	man, err := index.ReadManifest(br)
	if err != nil {
		return nil, fmt.Errorf("engine: loading manifest: %w", err)
	}
	segs := make([]*segment, len(man.Segments))
	for si, sg := range man.Segments {
		if si == 0 {
			// Deployment knobs reshape the base segment only: flushed
			// segments were already laid out under this config, and their
			// single-shard partition is part of the lifecycle's shape.
			sg = reshape(sg, cfg)
		}
		installTables(cfg, sg.Index())
		idx := sg.Index()
		raw := newHeapDocs(idx.NumDocs())
		for d := int32(0); d < int32(idx.NumDocs()); d++ {
			body, err := readLenString(br)
			if err != nil {
				return nil, fmt.Errorf("%w: segment %d body %d: %v", ErrBadEngineFormat, si, d, err)
			}
			raw.add(idx.DocID(d), docText{body: body})
		}
		// Engine streams carry no forward index: one analysis pass over
		// the bodies rebuilds it, where Build would have spent the same
		// pass producing the postings.
		ensureForward(cfg, idx, raw)
		segs[si] = &segment{seg: sg, docs: raw}
	}
	memN, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: memtable count: %v", ErrBadEngineFormat, err)
	}
	if memN > 1<<24 {
		return nil, fmt.Errorf("%w: memtable count %d too large", ErrBadEngineFormat, memN)
	}
	mem := index.NewMemtable(cfg.blockLayout())
	for i := uint64(0); i < memN; i++ {
		id, err := readLenString(br)
		if err != nil {
			return nil, fmt.Errorf("%w: memtable id %d: %v", ErrBadEngineFormat, i, err)
		}
		body, err := readLenString(br)
		if err != nil {
			return nil, fmt.Errorf("%w: memtable body %d: %v", ErrBadEngineFormat, i, err)
		}
		toks, lens := analyze(cfg.Analyzer, docText{body: body}, nil, nil)
		mem.Add(index.MemDoc{ID: id, Tokens: toks, FieldLens: lens, Payload: body})
	}
	dead := make(map[string]bool, len(man.Tombstones))
	for _, id := range man.Tombstones {
		if !mem.Has(id) { // defensive: the invariant keeps these disjoint
			dead[id] = true
		}
	}
	st := &state{
		stateData: stateData{
			epoch: man.Epoch,
			segs:  segs,
			dead:  dead,
			mem:   mem,
		},
		refs: 1,
	}
	st.retainMapped()
	// Recount liveness: a sealed copy is shadowed when deleted or
	// superseded by a newer source; everything else is live.
	st.live = mem.Len()
	mv := mem.View()
	for si, sg := range segs {
		idx := sg.seg.Index()
		for d := int32(0); d < int32(idx.NumDocs()); d++ {
			if st.sealedLive(si, idx.DocID(d), mv) {
				st.live++
			} else {
				st.shadowed++
			}
		}
	}
	base := segs[0].seg.Index()
	st.lex = textsim.WrapSortedTerms(base.Terms())
	st.idf = textsim.ComputeIDFFromIndex(base, st.lex)
	st.dict = new(dictPrint)
	for _, sg := range segs[1:] {
		sg.xlat = translate(st.lex, sg.seg.Index())
	}
	return st, nil
}

// reshape applies the deployment knobs — shard count, posting layout —
// to a loaded segment. Config zero values keep the stream's choices.
func reshape(seg *index.Segmented, cfg Config) *index.Segmented {
	if cfg.Shards > 0 {
		// Shard count is a deployment knob, not corpus data: an explicit
		// Config.Shards overrides whatever partition the stream recorded.
		seg = seg.Resegment(cfg.Shards)
	}
	// Posting layout is a deployment knob too: an explicit block size
	// (negative = flat, Build's convention) or DisableCompression
	// re-lays the loaded postings (preserving the shard partition).
	switch {
	case (cfg.DisableCompression || cfg.BlockSize < 0) && seg.Index().Blocked():
		seg = index.ReblockSegmented(seg, -1)
	case !cfg.DisableCompression && cfg.BlockSize > 0 && seg.Index().BlockSize() != cfg.BlockSize:
		seg = index.ReblockSegmented(seg, cfg.BlockSize)
	}
	return seg
}

func readLenString(br *bufio.Reader) (string, error) {
	l, err := binary.ReadUvarint(br)
	if err != nil {
		return "", err
	}
	if l > 1<<28 {
		return "", fmt.Errorf("string too long (%d)", l)
	}
	b := make([]byte, l)
	if _, err := io.ReadFull(br, b); err != nil {
		return "", err
	}
	return string(b), nil
}
