package engine

import (
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"repro/internal/index"
)

// docText is a document's raw text, kept the way it arrived: Build and
// Ingest hold the caller's Title and Body strings as they are (a second,
// concatenated copy of every body used to be a quarter of the live heap),
// while a body read back from a persisted payload is one string with an
// empty title. The text a document stands for is title + " " + body;
// nothing on the query path ever builds that string.
type docText struct{ title, body string }

// payload materializes the text in its persisted form — what SaveTo and
// WriteMappedTo write into an image's payload section and Compact
// replays.
func (t docText) payload() string {
	if t.title == "" {
		return strings.TrimSpace(t.body)
	}
	return strings.TrimSpace(t.title + " " + t.body)
}

// nextField returns the first whitespace field of s at or after byte i
// and the offset just past it, splitting exactly as strings.Fields does;
// ok is false when no field is left.
func nextField(s string, i int) (field string, end int, ok bool) {
	start := -1
	for i < len(s) {
		r, n := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRuneInString(s[i:])
		}
		if unicode.IsSpace(r) {
			if start >= 0 {
				return s[start:i], i, true
			}
		} else if start < 0 {
			start = i
		}
		i += n
	}
	if start >= 0 {
		return s[start:], len(s), true
	}
	return "", len(s), false
}

// cut returns whitespace fields [lo, hi) of the text joined by single
// spaces — the snippet of a window the forward index picked. A text with
// fewer fields than the window claims (a payload that disagrees with its
// forward index) yields the fields it has. The result never aliases the
// text, so a snippet cut from a mapped payload may outlive the mapping.
func (t docText) cut(lo, hi int) string {
	var b strings.Builder
	n := 0
	for _, part := range [2]string{t.title, t.body} {
		for i := 0; n < hi; n++ {
			field, end, ok := nextField(part, i)
			if !ok {
				break
			}
			i = end
			if n < lo {
				continue
			}
			if b.Len() == 0 {
				// Sized for the common case: the window's fields sit
				// one space apart in the same part.
				b.Grow(min(len(part)-(end-len(field)), 12*(hi-lo)))
			} else {
				b.WriteByte(' ')
			}
			b.WriteString(field)
		}
	}
	return b.String()
}

// docStore is the raw-text side of a searchable source: the store
// snippets are cut from and compaction replays, addressed by the
// source's internal document numbers. Three implementations exist — an
// owned table (the build/flush/compact path), a view over an index
// image's payload section (loaded and mapped segments, whose bodies are
// read in place), and a view over the memtable's sealed snapshot.
type docStore interface {
	// Ordinal returns the internal number of the document with this ID.
	Ordinal(id string) (int32, bool)
	// Text returns the raw text of document d. For an image-backed store
	// the strings alias the image: a mapped one is valid only while the
	// backing mapping is retained (a pinned state), and anything that
	// outlives the segment must copy them (see Borrowed).
	Text(d int32) docText
	// Borrowed reports whether Text strings alias an index image and
	// must be cloned before they outlive the segment — to keep a mapping
	// from being unmapped under them, or a retired heap image from being
	// kept alive by them.
	Borrowed() bool
}

// heapDocs is the owned store every build, flush and compaction produces:
// texts by document number plus the docID → number map liveness checks
// probe. Strings are garbage-collected Go heap data; nothing to clone.
type heapDocs struct {
	byID  map[string]int32
	texts []docText
}

func newHeapDocs(n int) *heapDocs {
	return &heapDocs{byID: make(map[string]int32, n), texts: make([]docText, 0, n)}
}

// add appends the next document; callers add in index document order.
func (h *heapDocs) add(id string, t docText) {
	h.byID[id] = int32(len(h.texts))
	h.texts = append(h.texts, t)
}

func (h *heapDocs) Ordinal(id string) (int32, bool) { d, ok := h.byID[id]; return d, ok }
func (h *heapDocs) Text(d int32) docText            { return h.texts[d] }
func (h *heapDocs) Borrowed() bool                  { return false }

// mappedDocs serves bodies straight out of an index image's payload
// section — the zero-copy document store of an engine opened over an
// index file and of every segment Load reads.
// The docID → ordinal map is built lazily on the first by-ID access, so
// opening stays O(1) in the corpus and a pure serving workload (which
// reaches documents by ordinal) never pays for it.
//
// An index without payloads still answers Ordinal (liveness is an index
// property) but serves empty bodies — searches work, snippets are empty.
type mappedDocs struct {
	idx  *index.Index
	once sync.Once
	byID map[string]int32
}

func (m *mappedDocs) Ordinal(id string) (int32, bool) {
	m.once.Do(func() {
		m.byID = make(map[string]int32, m.idx.NumDocs())
		for d := int32(0); d < int32(m.idx.NumDocs()); d++ {
			m.byID[m.idx.DocID(d)] = d
		}
	})
	d, ok := m.byID[id]
	return d, ok
}

func (m *mappedDocs) Text(d int32) docText {
	p, _ := m.idx.Payload(d) // empty when the file carries no payloads
	return docText{body: p}
}

func (m *mappedDocs) Borrowed() bool { return true }

// memDocs is the memtable's sealed view as a docStore.
type memDocs struct{ mv *index.MemView }

func (m memDocs) Ordinal(id string) (int32, bool) { return m.mv.Ordinal(id) }
func (m memDocs) Text(d int32) docText            { return docText{body: m.mv.PayloadAt(d)} }
func (m memDocs) Borrowed() bool                  { return false }
