// Package text implements the lexical analysis chain used by the search
// engine substrate: Unicode tokenization, the Porter stemming algorithm and
// standard English stopword removal. The paper's experimental setup (§5)
// indexes ClueWeb-B with "Porter's stemmer and standard English stopword
// removal"; this package is the stdlib-only equivalent of that Terrier
// analysis pipeline.
package text

import (
	"strings"
	"unicode"
)

// Tokenize splits text into lowercase alphanumeric tokens. Any rune that is
// neither a letter nor a digit is a separator. The tokenizer is
// deliberately simple and deterministic: the same choice Terrier's default
// "EnglishTokeniser" makes for Latin alphabets.
func Tokenize(text string) []string {
	tokens := make([]string, 0, len(text)/6)
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			tokens = append(tokens, b.String())
			b.Reset()
		}
	}
	for _, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(unicode.ToLower(r))
		} else {
			flush()
		}
	}
	flush()
	return tokens
}

// NormalizeQuery canonicalizes a raw query string the way the query-log
// pipeline expects: lowercase, alphanumeric tokens joined by single spaces.
// Two queries that normalize identically are treated as the same query
// throughout log mining.
func NormalizeQuery(q string) string {
	return strings.Join(Tokenize(q), " ")
}

// Analyzer bundles the full analysis chain. The zero value performs
// tokenization only; NewAnalyzer returns the paper's configuration
// (stopwords + Porter stemming).
type Analyzer struct {
	StopWords map[string]bool // tokens to drop (after lowercasing, before stemming)
	Stem      bool            // apply the Porter stemmer
	MinLen    int             // drop tokens shorter than MinLen (0 = keep all)

	stems map[string]string // ForPass only: stems already worked out
}

// stemMemoCap bounds a pass's stem memo. A collection's running text
// repeats a few thousand word forms; the cap only matters for a corpus of
// mostly unique tokens, whose later forms are stemmed unremembered.
const stemMemoCap = 1 << 16

// ForPass returns a copy of a for one goroutine's pass over many documents
// (an index build, a compaction): the same chain, with every distinct word
// form stemmed once and remembered for the rest of the pass — Porter's
// suffix matching is most of what analysis costs. The memo belongs to the
// copy and goes when it does; a itself stays safe for concurrent use, the
// copy is not.
func (a *Analyzer) ForPass() *Analyzer {
	c := *a
	if c.Stem {
		c.stems = make(map[string]string)
	}
	return &c
}

// NewAnalyzer returns the analysis chain used in the paper's experiments:
// standard English stopword removal followed by Porter stemming.
func NewAnalyzer() *Analyzer {
	return &Analyzer{StopWords: StopWords(), Stem: true, MinLen: 1}
}

// Tokens runs the full chain on text.
func (a *Analyzer) Tokens(text string) []string {
	raw := Tokenize(text)
	out := raw[:0]
	for _, tok := range raw {
		if tok, ok := a.keep(tok); ok {
			out = append(out, tok)
		}
	}
	return out
}

// keep runs the per-token half of the chain — length filter, stopwords,
// stemming — and reports whether the token survives.
func (a *Analyzer) keep(tok string) (string, bool) {
	if a.MinLen > 0 && len(tok) < a.MinLen {
		return "", false
	}
	if a.StopWords != nil && a.StopWords[tok] {
		return "", false
	}
	if a.Stem {
		stem, known := a.stems[tok]
		if !known {
			stem = Stem(tok)
			if a.stems != nil && len(a.stems) < stemMemoCap {
				a.stems[tok] = stem
			}
		}
		tok = stem
	}
	return tok, tok != ""
}

// FieldTokens is Tokens with whitespace-field boundaries kept: it appends
// the analyzed tokens of text to tokens and, for every whitespace field
// of text (the strings.Fields split), the number of tokens that field
// contributed to lens — 0 for a punctuation-only or stopword field, 2 or
// more for one like "state-of-the-art". White space always separates
// tokens, so the token stream equals Tokens(text): one pass yields both
// what the inverted index consumes and what a forward index records.
func (a *Analyzer) FieldTokens(tokens []string, lens []int32, text string) ([]string, []int32) {
	var b strings.Builder
	inField := false
	fieldStart := len(tokens)
	flush := func() {
		if b.Len() > 0 {
			if tok, ok := a.keep(b.String()); ok {
				tokens = append(tokens, tok)
			}
			b.Reset()
		}
	}
	endField := func() {
		flush()
		if inField {
			lens = append(lens, int32(len(tokens)-fieldStart))
			fieldStart = len(tokens)
			inField = false
		}
	}
	for _, r := range text {
		switch {
		case unicode.IsSpace(r):
			endField()
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			inField = true
			b.WriteRune(unicode.ToLower(r))
		default:
			inField = true
			flush()
		}
	}
	endField()
	return tokens, lens
}
