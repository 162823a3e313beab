package text

import (
	"reflect"
	"strings"
	"testing"
	"unicode"
)

// refTokenize is Tokenize as it was written before AppendTokens: a fresh
// string per token, built rune by rune. It is the oracle the append form,
// the shared-buffer Tokenize and NormalizeQuery's fast path are held to.
func refTokenize(text string) []string {
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

// tokenizeSeeds covers the inputs whose lowercasing is not byte for byte:
// invalid UTF-8, 'İ' (two bytes lowercasing to one), 'ß' (lowercase with
// no one-rune upper form), a final sigma, a title-case digraph and a rune
// that grows when lowercased.
var tokenizeSeeds = []string{
	"", " ", "a", "topic01", "noise query 0001", "jaguar cars",
	"  Leopard   Mac OS-X ", "APPLE", "Café Zürich naïve",
	"\xff", "ab\xffcd", "\xc3", "x\xe2\x82", "İstanbul", "straße STRASSE",
	"ΟΔΟΣ οδος", "Ǆemal ǅ", "Ⱥ ⱥ", "a  b", " a b", "a b ", "a\tb", "٣4five",
	" nbsp ", "U+FFFD � kept",
}

func TestTokenizeMatchesReference(t *testing.T) {
	for _, s := range tokenizeSeeds {
		checkTokenize(t, s)
	}
}

func FuzzTokenize(f *testing.F) {
	for _, s := range tokenizeSeeds {
		f.Add(s)
	}
	f.Fuzz(checkTokenize)
}

func checkTokenize(t *testing.T, s string) {
	want := refTokenize(s)
	if got := Tokenize(s); !sameTokens(got, want) {
		t.Fatalf("Tokenize(%q) = %q, want %q", s, got, want)
	}
	pre := []string{"kept"}
	if got := AppendTokens(pre, s); !sameTokens(got[1:], want) || got[0] != "kept" {
		t.Fatalf("AppendTokens(%q) = %q, want [kept] + %q", s, got, want)
	}
	if got, want := NormalizeQuery(s), strings.Join(want, " "); got != want {
		t.Fatalf("NormalizeQuery(%q) = %q, want %q", s, got, want)
	}
	a := NewAnalyzer()
	wantA := refAnalyze(a, s)
	if got := a.Tokens(s); !sameTokens(got, wantA) {
		t.Fatalf("Tokens(%q) = %q, want %q", s, got, wantA)
	}
	if got := a.AppendTokens(pre[:1], s); !sameTokens(got[1:], wantA) || got[0] != "kept" {
		t.Fatalf("Analyzer.AppendTokens(%q) = %q, want [kept] + %q", s, got, wantA)
	}
}

// refAnalyze is the analysis chain over the reference tokenizer.
func refAnalyze(a *Analyzer, s string) []string {
	var out []string
	for _, tok := range refTokenize(s) {
		if tok, ok := a.keep(tok); ok {
			out = append(out, tok)
		}
	}
	return out
}

func sameTokens(got, want []string) bool {
	return len(got) == len(want) && (len(got) == 0 || reflect.DeepEqual(got, want))
}

// A normalized query is its own normal form, and the tokens of a
// lowercase ASCII query are substrings of it — as are stems that only
// strip a suffix ("query" becomes "queri", which is not): nothing is
// allocated for either.
func TestNormalizedQueryAllocatesNothing(t *testing.T) {
	for _, q := range []string{"topic01", "noise query 0001", "jaguar cars running", "café"} {
		if n := testing.AllocsPerRun(100, func() { _ = NormalizeQuery(q) }); n != 0 {
			t.Errorf("NormalizeQuery(%q): %v allocations, want 0", q, n)
		}
	}
	a := NewAnalyzer()
	buf := make([]string, 0, 8)
	for _, q := range []string{"topic01", "jaguar cars running"} {
		if n := testing.AllocsPerRun(100, func() { buf = a.AppendTokens(buf[:0], q) }); n != 0 {
			t.Errorf("Analyzer.AppendTokens(%q): %v allocations, want 0", q, n)
		}
	}
}
