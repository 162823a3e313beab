package engine

import (
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"repro/internal/index"
	"repro/internal/text"
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

// textStore is the raw-text side of a searchable source: the store
// snippets are cut from and compaction replays, addressed by the
// source's internal document numbers. It holds the source's index and,
// for text the engine owns — built, flushed and compacted segments, the
// memtable view — the texts by document number. Without owned texts
// (loaded and mapped segments) it reads the image's payload section in
// place; every image has one.
type textStore struct {
	idx   *index.Index
	texts []docText // nil: the texts are idx's payload section

	// byID maps document IDs to numbers. It is built from idx on the
	// first Ordinal: only mutations, and searches of a snapshot they left
	// non-quiet, look documents up by ID, so a pure serving workload
	// never pays for it.
	once sync.Once
	byID map[string]int32
}

// Ordinal returns the internal number of the document with this ID.
func (s *textStore) Ordinal(id string) (int32, bool) {
	s.once.Do(func() {
		s.byID = make(map[string]int32, s.idx.NumDocs())
		for d := int32(0); d < int32(s.idx.NumDocs()); d++ {
			s.byID[s.idx.DocID(d)] = d
		}
	})
	d, ok := s.byID[id]
	return d, ok
}

// Text returns the raw text of document d. For a borrowed store the
// strings alias the image: a mapped one is valid only while the backing
// mapping is retained (a pinned state), and anything that outlives the
// segment must copy them.
func (s *textStore) Text(d int32) docText {
	if s.texts != nil {
		return s.texts[d]
	}
	p, _ := s.idx.Payload(d)
	return docText{body: p}
}

// Borrowed reports whether Text strings alias an index image and must be
// cloned before they outlive the segment — to keep a mapping from being
// unmapped under them, or a retired heap image from being kept alive by
// them.
func (s *textStore) Borrowed() bool { return s.texts == nil }

// segmentBuilder indexes documents in order and keeps their texts: the
// one path by which Build, Flush and Compact fill a segment and its
// store.
type segmentBuilder struct {
	b        *index.Builder
	analyzer *text.Analyzer
	tokens   []string
	lens     []int32
	texts    []docText
}

func newSegmentBuilder(a *text.Analyzer, n int) *segmentBuilder {
	return &segmentBuilder{b: index.NewBuilder(), analyzer: a.ForPass(), texts: make([]docText, 0, n)}
}

// add analyzes t and indexes it as document id.
func (sb *segmentBuilder) add(id string, t docText) error {
	sb.tokens, sb.lens = analyze(sb.analyzer, t, sb.tokens[:0], sb.lens[:0])
	return sb.addAnalyzed(id, t, sb.tokens, sb.lens)
}

// addAnalyzed indexes a document whose analysis is already at hand (a
// buffered one).
func (sb *segmentBuilder) addAnalyzed(id string, t docText, tokens []string, lens []int32) error {
	if err := sb.b.AddFields(id, tokens, lens); err != nil {
		return err
	}
	sb.texts = append(sb.texts, t)
	return nil
}

// build seals what was added into a segmented index over shards shards
// (at least one) and returns it with its store.
func (sb *segmentBuilder) build(shards int) (*index.Segmented, *textStore) {
	seg := sb.b.BuildSegmented(max(shards, 1))
	return seg, &textStore{idx: seg.Index(), texts: sb.texts}
}
