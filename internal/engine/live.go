package engine

import (
	"math"
	"strings"

	"repro/internal/index"
)

// Live mutation API: the LSM-style segment lifecycle.
//
//	Ingest/Delete → memtable (+ tombstones)      epoch++, O(1) swap
//	Flush         → seal memtable into a segment epoch++, swap
//	Compact       → fold everything into one fresh base segment
//
// Mutators run under e.mu, build the next state, and publish it with one
// atomic store; searches load the pointer once and never block. Liveness
// is structural: the newest copy of a document ID wins (memtable over
// segments, newer segments over older), and the dead set holds only fully
// deleted IDs. The shadowed counter tracks how many sealed copies lost
// that race — the exact over-fetch searches need to keep top-k exact.
//
// The memtable is intentionally SHARED between consecutive states of one
// flush interval: an Ingest is visible to a search that loaded the
// pointer just before it (a bounded read-ahead — the search still stamps
// the older epoch). Deletes never read ahead: a document deleted at epoch
// d is filtered through the state's dead set or memtable view, both owned
// by states with epoch >= d, so a search stamped s < d may return it and
// a search stamped s >= d cannot — the invariant the race tests pin down.

// LiveStats is a point-in-time snapshot of the segment lifecycle, as
// surfaced by the serving layer's /stats.
type LiveStats struct {
	Epoch       uint64 `json:"epoch"`
	Segments    int    `json:"segments"`
	MemDocs     int    `json:"mem_docs"`
	Tombstones  int    `json:"tombstones"`
	Shadowed    int    `json:"shadowed"`
	LiveDocs    int    `json:"live_docs"`
	Flushes     uint64 `json:"flushes"`
	Compactions uint64 `json:"compactions"`
}

// Live returns the current lifecycle snapshot.
func (e *Engine) Live() LiveStats {
	st := e.cur.Load()
	return LiveStats{
		Epoch:       st.epoch,
		Segments:    len(st.segs),
		MemDocs:     st.mem.Len(),
		Tombstones:  len(st.dead),
		Shadowed:    st.shadowed,
		LiveDocs:    st.live,
		Flushes:     e.flushes.Load(),
		Compactions: e.compactions.Load(),
	}
}

// Epoch returns the current state's epoch: bumped by every successful
// mutation, constant across searches.
func (e *Engine) Epoch() uint64 { return e.cur.Load().epoch }

// memCap returns the auto-flush threshold.
func (e *Engine) memCap() int {
	switch {
	case e.cfg.MemtableCap > 0:
		return e.cfg.MemtableCap
	case e.cfg.MemtableCap < 0:
		return math.MaxInt
	}
	return 1024
}

// Ingest adds or replaces one document in the live index and returns the
// epoch at which it became visible. A replaced version — buffered or
// sealed — is superseded immediately; a tombstone on the ID is cleared.
// When the memtable reaches MemtableCap the ingest triggers a flush; a
// flush (persistence) failure leaves the document searchable in the
// memtable and returns the error.
func (e *Engine) Ingest(doc Document) (uint64, error) {
	t := docText{title: doc.Title, body: doc.Body}
	toks, lens := analyze(e.cfg.Analyzer, t, nil, nil)
	payload := t.payload() // buffered documents are persisted and replayed

	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.cur.Load()
	ns := st.clone()
	memHad := ns.mem.Has(doc.ID)
	_, sealed := ns.sealedHas(doc.ID)
	wasLive := memHad || (sealed && !ns.dead[doc.ID])
	if sealed && !ns.dead[doc.ID] && !memHad {
		// The newest sealed copy was the live version; it is superseded
		// from this epoch on. (If memHad, it was superseded already; if
		// dead, it was already counted when the delete landed.)
		ns.shadowed++
	}
	delete(ns.dead, doc.ID)
	ns.mem.Add(index.MemDoc{ID: doc.ID, Tokens: toks, FieldLens: lens, Payload: payload})
	if !wasLive {
		ns.live++
	}
	ns.epoch = st.epoch + 1
	e.cur.Store(ns)
	st.unpin()
	if ns.mem.Len() >= e.memCap() {
		if err := e.flushLocked(); err != nil {
			return ns.epoch, err
		}
	}
	return e.cur.Load().epoch, nil
}

// Delete removes the live version of a document. It reports whether one
// existed and the epoch of the removal (the current epoch on a miss).
func (e *Engine) Delete(id string) (uint64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.cur.Load()
	memHad := st.mem.Has(id)
	_, sealed := st.sealedHas(id)
	if !memHad && (!sealed || st.dead[id]) {
		return st.epoch, false
	}
	ns := st.clone()
	if memHad {
		ns.mem.Delete(id)
		if sealed {
			// The sealed copy was superseded by the buffered one (already
			// in shadowed); now the whole ID is dead.
			ns.dead[id] = true
		}
	} else {
		ns.dead[id] = true
		ns.shadowed++
	}
	ns.live--
	ns.epoch = st.epoch + 1
	e.cur.Store(ns)
	st.unpin()
	return ns.epoch, true
}

// Flush seals the memtable into an immutable single-shard segment with
// the same postings and max-score tables a batch build would give it, appends it to the segment list, and swaps in the new state (after
// persisting it when a WAL is configured). With an empty memtable there is
// nothing to seal, but a not-yet-durable epoch (a delete-only interval) is
// still persisted. Returns the resulting epoch.
func (e *Engine) Flush() (uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	err := e.flushLocked()
	return e.cur.Load().epoch, err
}

func (e *Engine) flushLocked() error {
	st := e.cur.Load()
	docs := st.mem.LiveDocs()
	if len(docs) == 0 {
		// Nothing to seal — but the current epoch may still owe the WAL a
		// write: a delete-only interval changes the tombstone set without
		// touching the memtable, and "flush" promises durability for it.
		if e.cfg.WALDir != "" && st.epoch > e.durable {
			return e.persistLocked(st)
		}
		return nil
	}
	sb := newSegmentBuilder(e.cfg.Analyzer, len(docs))
	for _, d := range docs {
		if err := sb.addAnalyzed(d.ID, docText{body: d.Payload}, d.Tokens, d.FieldLens); err != nil {
			return err // unreachable: memtable live IDs are unique
		}
	}
	seg, raw := sb.build(1)
	installTables(e.cfg, seg.Index())
	ns := st.clone()
	ns.segs = append(append(make([]*segment, 0, len(st.segs)+1), st.segs...),
		&segment{seg: seg, docs: raw, xlat: translate(st.lex, seg.Index())})
	ns.mem = index.NewMemtable()
	ns.epoch = st.epoch + 1
	// Counters carry over: every buffered doc became a sealed doc in the
	// newest segment, preserving exactly the supersession relationships
	// (and the dead set is disjoint from the memtable by invariant).
	if err := e.persistLocked(ns); err != nil {
		ns.unpin() // discard the unpublished state
		return err // no swap: the memtable stays searchable and mutable
	}
	e.cur.Store(ns)
	st.unpin()
	e.flushes.Add(1)
	return nil
}

// Compact folds the sealed segments, tombstones and memtable into one
// freshly built base segment — the batch-built shape: re-analyzed raw
// bodies (one pass feeding postings and forward index), recomputed
// max-score tables, a fresh lexicon and IDF table, no tombstones, empty
// memtable. Replay order is
// segments oldest-first (skipping dead and superseded copies) then the
// memtable, i.e. every surviving document ordered by its last write —
// exactly the order a batch Build over the surviving corpus uses, which
// is what makes a quiesced live index bit-identical to one. Returns the
// resulting epoch; a quiet state is a no-op.
func (e *Engine) Compact() (uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.cur.Load()
	mv := st.mem.View()
	if st.quiet(mv) && len(st.dead) == 0 {
		return st.epoch, nil
	}
	sb := newSegmentBuilder(e.cfg.Analyzer, st.live)
	for si, sg := range st.segs {
		idx := sg.seg.Index()
		// Body replay is one sequential pass over the segment in docID
		// order: hint readahead for the scan and restore the serving
		// pattern after (the segment keeps answering searches until the
		// swap below lands). Hints are advisory: errors are ignored, and
		// on heap indexes the calls are no-ops.
		_ = idx.Advise(index.AdviseSequential)
		for d := int32(0); d < int32(idx.NumDocs()); d++ {
			id := idx.DocID(d)
			if !st.sealedLive(si, id, mv) {
				continue
			}
			t := sg.docs.Text(d)
			if sg.docs.Borrowed() {
				// The compacted state outlives the image it replaces (the
				// swap below unmaps a mapped one once readers drain), so
				// bodies move into strings of their own.
				t = docText{body: strings.Clone(t.payload())}
			}
			if err := sb.add(id, t); err != nil {
				_ = idx.Advise(index.AdviseRandom)
				return st.epoch, err
			}
		}
		_ = idx.Advise(index.AdviseRandom)
	}
	for _, d := range st.mem.LiveDocs() {
		if err := sb.addAnalyzed(d.ID, docText{body: d.Payload}, d.Tokens, d.FieldLens); err != nil {
			return st.epoch, err
		}
	}
	seg, raw := sb.build(e.cfg.Shards)
	ns := freshState(e.cfg, seg, raw, st.epoch+1)
	if err := e.persistLocked(ns); err != nil {
		return st.epoch, err
	}
	e.cur.Store(ns)
	st.unpin()
	e.compactions.Add(1)
	return ns.epoch, nil
}
