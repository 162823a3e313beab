package index

import "sync"

// Memtable is the mutable in-memory write buffer of the LSM-style segment
// lifecycle: live documents accumulate here between flushes and are
// searchable in place through View, which seals the current contents into
// a throwaway single-shard Segmented index. An update is delete + append —
// the document keeps its external ID but moves to the end of the insertion
// order, exactly the order a later flush (and ultimately a compaction
// replay) preserves, so a quiesced live index is bit-identical to a batch
// build over the surviving documents.
//
// The engine serializes mutations, but searches call View and Has
// concurrently with them, so every method locks. The sealed view is cached
// per generation: it is rebuilt lazily on the first View after a mutation
// and shared by every search until the next one.
type Memtable struct {
	mu      sync.Mutex
	entries []memEntry
	byID    map[string]int // docID → index of its live entry
	gen     uint64         // bumped on every mutation
	viewGen uint64
	view    *MemView
}

// MemDoc is one buffered document: its external ID, analyzed tokens, and
// an opaque payload the caller wants carried alongside (the engine stores
// the raw body for snippet extraction). FieldLens is the
// per-whitespace-field token count Builder.AddFields takes, summing to
// len(Tokens).
type MemDoc struct {
	ID        string
	Tokens    []string
	FieldLens []int32
	Payload   string
}

type memEntry struct {
	doc  MemDoc
	dead bool
}

// NewMemtable returns an empty memtable.
func NewMemtable() *Memtable {
	return &Memtable{byID: make(map[string]int)}
}

// Add upserts a document: a live entry with the same ID is marked dead and
// the new version appended (delete + append ordering). Reports whether an
// existing live entry was replaced.
func (m *Memtable) Add(d MemDoc) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, replaced := m.byID[d.ID]
	if replaced {
		m.entries[m.byID[d.ID]].dead = true
	}
	m.byID[d.ID] = len(m.entries)
	m.entries = append(m.entries, memEntry{doc: d})
	m.gen++
	return replaced
}

// Delete marks the live entry for id dead. Reports whether one existed.
func (m *Memtable) Delete(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	at, ok := m.byID[id]
	if !ok {
		return false
	}
	m.entries[at].dead = true
	delete(m.byID, id)
	m.gen++
	return true
}

// Has reports whether a live entry for id is buffered.
func (m *Memtable) Has(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.byID[id]
	return ok
}

// Len returns the number of live buffered documents.
func (m *Memtable) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.byID)
}

// LiveDocs returns the live documents in insertion order — the replay
// order a flush seals into a segment. The slice is fresh; the MemDoc
// contents (tokens, payload) are shared and must not be modified.
func (m *Memtable) LiveDocs() []MemDoc {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]MemDoc, 0, len(m.byID))
	for _, e := range m.entries {
		if !e.dead {
			out = append(out, e.doc)
		}
	}
	return out
}

// MemView is a sealed, immutable snapshot of a memtable's live documents:
// a single-shard index over them plus the ID → ordinal map and the
// payloads by ordinal that searches use for membership filtering and
// snippet extraction. Views are cached per generation and shared across
// searches; they must not be modified.
type MemView struct {
	Seg      *Segmented
	byID     map[string]int32
	payloads []string
}

// Has reports whether the view contains a document with the external id.
func (v *MemView) Has(id string) bool {
	_, ok := v.Ordinal(id)
	return ok
}

// Ordinal returns the document number id has in the view's index.
func (v *MemView) Ordinal(id string) (int32, bool) {
	if v == nil {
		return 0, false
	}
	d, ok := v.byID[id]
	return d, ok
}

// PayloadAt returns the payload of the view's document number d.
func (v *MemView) PayloadAt(d int32) string { return v.payloads[d] }

// NumDocs returns the number of documents in the view.
func (v *MemView) NumDocs() int {
	if v == nil {
		return 0
	}
	return len(v.payloads)
}

// View seals the current live documents into a searchable snapshot, or
// returns nil when the memtable is empty. The snapshot is rebuilt only
// when the memtable has mutated since the last call; concurrent searches
// between mutations share one view. The view's index carries no max-score
// tables — retrieval over it takes the exhaustive path, which is exact.
func (m *Memtable) View() *MemView {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.byID) == 0 {
		return nil
	}
	if m.view != nil && m.viewGen == m.gen {
		return m.view
	}
	b := NewBuilder()
	byID := make(map[string]int32, len(m.byID))
	payloads := make([]string, 0, len(m.byID))
	for _, e := range m.entries {
		if e.dead {
			continue
		}
		if err := b.AddFields(e.doc.ID, e.doc.Tokens, e.doc.FieldLens); err != nil {
			// Unreachable: byID guarantees live IDs are unique, and the
			// engine hands over FieldTokens output.
			panic(err)
		}
		byID[e.doc.ID] = int32(len(payloads))
		payloads = append(payloads, e.doc.Payload)
	}
	m.view = &MemView{Seg: b.BuildSegmented(1), byID: byID, payloads: payloads}
	m.viewGen = m.gen
	return m.view
}
