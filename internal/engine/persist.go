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
// and reloaded without re-analyzing its sealed segments. The format,
// RENG3, is a small container around the segments' own index images (all
// counts and lengths unsigned varints) —
//
//	magic "RENG3\n"
//	epoch
//	numTombstones, then per tombstone (sorted): idLen, idBytes
//	memtable: numDocs, then per doc: idLen, idBytes, bodyLen, bodyBytes
//	  (tokens are re-derived by analysis at load time)
//	numSegments, then per segment (oldest first): imageLen, then an
//	  RIDX7 image with payload and forward-index sections
//	  (index.Segmented.WriteMappedFramed)
//
// so a sealed segment travels in the form it is served in — postings,
// score tables, shard partition, bodies, forward index — and Load parses
// each image on a heap slab of its own instead of analyzing any body.
// Any other magic — the RENG1 and RENG2 of earlier builds included — is
// ErrBadEngineFormat. The weighting model and analyzer are code, not
// data: the loader supplies them through Config exactly as Build does.
// The IDF table and term lexicon are reconstructed from the base index at
// load time (the image's sorted-dictionary invariant makes the lexicon a
// zero-copy wrap).

const engineMagic = "RENG3\n"

// maxSegments bounds the segment count an epoch file may declare — far
// above what any lifecycle accumulates between compactions, low enough
// that a hostile count fails fast.
const maxSegments = 1 << 10

// ErrBadEngineFormat reports a corrupt or foreign engine stream.
var ErrBadEngineFormat = errors.New("engine: bad engine format")

// SaveTo serializes the engine's current state — segments, tombstones and
// buffered memtable documents included. Shard partitions and block sizes
// survive the round trip (Load keeps the partition unless Config.Shards
// overrides it).
func (e *Engine) SaveTo(w io.Writer) error {
	st := e.snapshot()
	defer st.unpin()
	return saveState(st, w)
}

func saveState(st *state, w io.Writer) error {
	// bufio.Writer errors are sticky: the first failed write surfaces from
	// the next image write or the final Flush.
	bw := bufio.NewWriter(w)
	var num [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) { bw.Write(num[:binary.PutUvarint(num[:], v)]) }
	writeString := func(s string) {
		writeUvarint(uint64(len(s)))
		bw.WriteString(s)
	}
	bw.WriteString(engineMagic)
	writeUvarint(st.epoch)
	tombs := make([]string, 0, len(st.dead))
	for id := range st.dead {
		tombs = append(tombs, id)
	}
	sort.Strings(tombs)
	writeUvarint(uint64(len(tombs)))
	for _, id := range tombs {
		writeString(id)
	}
	docs := st.mem.LiveDocs()
	writeUvarint(uint64(len(docs)))
	for _, d := range docs {
		writeString(d.ID)
		writeString(d.Payload)
	}
	writeUvarint(uint64(len(st.segs)))
	for _, sg := range st.segs {
		if _, err := sg.seg.WriteMappedFramed(bw, func(d int32) string { return sg.docs.Text(d).payload() }); err != nil {
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

// loadState reads an RENG3 stream. Every length and count in it is
// untrusted: nothing is allocated in proportion to a claimed size, only
// to the bytes actually read, so a short hostile stream fails cheaply.
func loadState(r io.Reader, cfg Config) (*state, error) {
	st, err := readState(bufio.NewReader(r), cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadEngineFormat, err)
	}
	return st, nil
}

func readState(br *bufio.Reader, cfg Config) (*state, error) {
	magic := make([]byte, len(engineMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	if string(magic) != engineMagic {
		return nil, fmt.Errorf("bad magic %q", magic)
	}
	epoch, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("epoch: %w", err)
	}
	numTombs, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("tombstone count: %w", err)
	}
	dead := make(map[string]bool)
	for i := uint64(0); i < numTombs; i++ {
		id, err := readString(br)
		if err != nil {
			return nil, fmt.Errorf("tombstone %d: %w", i, err)
		}
		dead[id] = true
	}
	memN, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("memtable count: %w", err)
	}
	mem := index.NewMemtable()
	for i := uint64(0); i < memN; i++ {
		id, err := readString(br)
		if err != nil {
			return nil, fmt.Errorf("memtable id %d: %w", i, err)
		}
		body, err := readString(br)
		if err != nil {
			return nil, fmt.Errorf("memtable body %d: %w", i, err)
		}
		toks, lens := analyze(cfg.Analyzer, docText{body: body}, nil, nil)
		mem.Add(index.MemDoc{ID: id, Tokens: toks, FieldLens: lens, Payload: body})
		delete(dead, id) // defensive: the invariant keeps these disjoint
	}
	numSegs, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("segment count: %w", err)
	}
	if numSegs == 0 || numSegs > maxSegments {
		return nil, fmt.Errorf("segment count %d out of range", numSegs)
	}
	var segs []*segment
	for si := uint64(0); si < numSegs; si++ {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("segment %d length: %w", si, err)
		}
		if n > 1<<62 {
			return nil, fmt.Errorf("segment %d length %d out of range", si, n)
		}
		img := &io.LimitedReader{R: br, N: int64(n)}
		seg, err := index.ReadSegmented(img)
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", si, err)
		}
		if img.N != 0 {
			return nil, fmt.Errorf("segment %d: image cut at %d of %d bytes", si, n-uint64(img.N), n)
		}
		idx := seg.Index()
		if si == 0 && cfg.Shards > 0 {
			// Shard count is a deployment knob, not corpus data: it
			// reshapes the base segment only — flushed segments' single
			// shard is part of the lifecycle's shape.
			seg = seg.Resegment(cfg.Shards)
		}
		installTables(cfg, idx)
		segs = append(segs, &segment{seg: seg, docs: &textStore{idx: idx}})
	}
	st := &state{
		stateData: stateData{
			epoch: epoch,
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
	st.idf = textsim.ComputeIDFFromIndex(base)
	st.dict = new(dictPrint)
	for _, sg := range segs[1:] {
		sg.xlat = translate(st.lex, sg.seg.Index())
	}
	return st, nil
}

// readString reads a length-prefixed string. The bytes are copied in as
// they arrive, so a hostile length costs memory in proportion to the
// bytes actually present, not to the length claimed.
func readString(br *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", err
	}
	var b []byte
	for n > 0 {
		chunk := min(n, 1<<16)
		b = append(b, make([]byte, chunk)...)
		if _, err := io.ReadFull(br, b[len(b)-int(chunk):]); err != nil {
			return "", err
		}
		n -= chunk
	}
	return string(b), nil
}
