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
	"unicode/utf8"
)

// Tokenize splits text into lowercase alphanumeric tokens. Any rune that is
// neither a letter nor a digit is a separator. The tokenizer is
// deliberately simple and deterministic: the same choice Terrier's default
// "EnglishTokeniser" makes for Latin alphabets. The tokens share one
// lowercased copy of text and never reference text itself.
func Tokenize(text string) []string {
	return appendTokens(make([]string, 0, len(text)/6), text, true)
}

// AppendTokens appends the tokens Tokenize would return for text to dst.
// When text is already lowercase ASCII the tokens are substrings of it and
// nothing is allocated beyond dst's growth; otherwise they share one
// lowercased copy. A token kept therefore keeps text alive: this is for a
// request's own query strings, never for document text, which may live in
// a mapping.
func AppendTokens(dst []string, text string) []string {
	return appendTokens(dst, text, !lowerASCII(text))
}

// appendTokens appends text's tokens to dst: as they stand in text, or,
// with lower, lowercased rune by rune into one buffer. The builder only
// appends, so a token taken from it stays valid whatever it does next.
func appendTokens(dst []string, text string, lower bool) []string {
	var b strings.Builder
	if lower {
		b.Grow(len(text))
	}
	for tok, rest := NextToken(text); tok != ""; tok, rest = NextToken(rest) {
		if lower {
			from := b.Len()
			for _, r := range tok {
				b.WriteRune(unicode.ToLower(r))
			}
			tok = b.String()[from:]
		}
		dst = append(dst, tok)
	}
	return dst
}

// lowerASCII reports whether s has no byte outside ASCII and no upper-case
// letter: whether lowercasing s rune by rune leaves it as it is.
func lowerASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= utf8.RuneSelf || 'A' <= c && c <= 'Z' {
			return false
		}
	}
	return true
}

// isWord reports whether r belongs to a token: a letter or a digit.
func isWord(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) }

// NextToken returns the first token of s as it stands in s — before
// lowercasing — and the rest of s after it; tok is "" when s holds none.
// Tokenize lowercases exactly these substrings, in this order.
func NextToken(s string) (tok, rest string) {
	start := -1
	for i, r := range s {
		if isWord(r) {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			return s[start:i], s[i:]
		}
	}
	if start < 0 {
		return "", ""
	}
	return s[start:], ""
}

// SameToken reports whether two NextToken tokens lowercase to the same
// token.
func SameToken(a, b string) bool {
	for a != "" && b != "" {
		ra, na := utf8.DecodeRuneInString(a)
		rb, nb := utf8.DecodeRuneInString(b)
		if unicode.ToLower(ra) != unicode.ToLower(rb) {
			return false
		}
		a, b = a[na:], b[nb:]
	}
	return a == b
}

// NormalizeQuery canonicalizes a raw query string the way the query-log
// pipeline expects: lowercase, alphanumeric tokens joined by single spaces.
// Two queries that normalize identically are treated as the same query
// throughout log mining. A query already in that form is returned as it
// is.
func NormalizeQuery(q string) string {
	if normalized(q) {
		return q
	}
	return strings.Join(Tokenize(q), " ")
}

// normalized reports whether NormalizeQuery(q) == q: q is tokens whose
// runes lowercasing leaves as they are, each pair separated by one space.
func normalized(q string) bool {
	prev := ' ' // a leading space is a separator after nothing
	for _, r := range q {
		if r == ' ' {
			if prev == ' ' {
				return false
			}
		} else if !isWord(r) || unicode.ToLower(r) != r {
			return false
		}
		prev = r
	}
	return prev != ' ' || q == ""
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
	return a.filter(Tokenize(text), 0)
}

// AppendTokens runs the full chain on text and appends the surviving
// tokens to dst. Like text.AppendTokens it may return substrings of text:
// for a request's query strings only.
func (a *Analyzer) AppendTokens(dst []string, text string) []string {
	return a.filter(AppendTokens(dst, text), len(dst))
}

// filter runs keep over toks[from:] in place.
func (a *Analyzer) filter(toks []string, from int) []string {
	out := toks[:from]
	for _, tok := range toks[from:] {
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
		case isWord(r):
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
