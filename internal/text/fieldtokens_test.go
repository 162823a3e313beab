package text

import (
	"reflect"
	"strings"
	"testing"
)

// TestFieldTokens: one pass yields Tokens' stream and, per whitespace
// field (the strings.Fields split), the count Tokens gives for that field
// alone — including fields that analyze to nothing and to several tokens,
// every Unicode space, and invalid UTF-8.
func TestFieldTokens(t *testing.T) {
	a := NewAnalyzer()
	for _, s := range []string{
		"", "   ", "alpha", "  The quick  brown\tfox\n\njumps ",
		"a state-of-the-art e-mail -- isn't ... running",
		"na\u00efve caf\u00e9 \u00c9COLE\u3000\u6771\u4eac zero\u200bwidth\u0085next\u00a0line\u2028end",
		"bad \xff\xfe utf8\xc3 here \xf0\x9f", "!!! ??? the of", "x1,x2;x3 1,000 3.14",
	} {
		wantToks := []string{}
		wantLens := []int32{}
		for _, f := range strings.Fields(s) {
			ts := a.Tokens(f)
			wantToks = append(wantToks, ts...)
			wantLens = append(wantLens, int32(len(ts)))
		}
		toks, lens := a.FieldTokens([]string{}, []int32{}, s)
		if !reflect.DeepEqual(lens, wantLens) || !reflect.DeepEqual(toks, wantToks) {
			t.Errorf("FieldTokens(%q) = %q %v, want %q %v", s, toks, lens, wantToks, wantLens)
		}
		if all := append([]string{}, a.Tokens(s)...); !reflect.DeepEqual(all, toks) {
			t.Errorf("FieldTokens(%q) tokens %q differ from Tokens %q", s, toks, all)
		}
		// Appending keeps what the caller passed in.
		toks2, lens2 := a.FieldTokens([]string{"kept"}, []int32{9}, s)
		if toks2[0] != "kept" || lens2[0] != 9 || len(toks2) != 1+len(wantToks) || len(lens2) != 1+len(wantLens) {
			t.Errorf("FieldTokens(%q) did not append: %q %v", s, toks2, lens2)
		}
	}
}
