package text

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizeBasic(t *testing.T) {
	got := Tokenize("Apple Corp., the FRUIT-seller; visits 3 towns!")
	want := []string{"apple", "corp", "the", "fruit", "seller", "visits", "3", "towns"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeEmptyAndSeparators(t *testing.T) {
	if got := Tokenize(""); len(got) != 0 {
		t.Errorf("Tokenize(\"\") = %v", got)
	}
	if got := Tokenize("  \t\n--..!!  "); len(got) != 0 {
		t.Errorf("Tokenize(separators) = %v", got)
	}
}

func TestTokenizeUnicode(t *testing.T) {
	got := Tokenize("Café Zürich naïve")
	want := []string{"café", "zürich", "naïve"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestNormalizeQuery(t *testing.T) {
	cases := []struct{ in, want string }{
		{"  Leopard   Mac OS-X ", "leopard mac os x"},
		{"APPLE", "apple"},
		{"", ""},
		{"obama family tree", "obama family tree"},
	}
	for _, c := range cases {
		if got := NormalizeQuery(c.in); got != c.want {
			t.Errorf("NormalizeQuery(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// Vectors from Porter's original paper and the canonical reference
// implementation's vocabulary output.
func TestPorterStemKnownVectors(t *testing.T) {
	cases := map[string]string{
		// step 1a
		"caresses": "caress",
		"ponies":   "poni",
		"ties":     "ti",
		"caress":   "caress",
		"cats":     "cat",
		// step 1b
		"feed":      "feed",
		"agreed":    "agre",
		"plastered": "plaster",
		"bled":      "bled",
		"motoring":  "motor",
		"sing":      "sing",
		"conflated": "conflat",
		"troubled":  "troubl",
		"sized":     "size",
		"hopping":   "hop",
		"tanned":    "tan",
		"falling":   "fall",
		"hissing":   "hiss",
		"fizzed":    "fizz",
		"failing":   "fail",
		"filing":    "file",
		// step 1c
		"happy": "happi",
		"sky":   "sky",
		// step 2
		"relational":     "relat",
		"conditional":    "condit",
		"rational":       "ration",
		"valenci":        "valenc",
		"hesitanci":      "hesit",
		"digitizer":      "digit",
		"conformabli":    "conform",
		"radicalli":      "radic",
		"differentli":    "differ",
		"vileli":         "vile",
		"analogousli":    "analog",
		"vietnamization": "vietnam",
		"predication":    "predic",
		"operator":       "oper",
		"feudalism":      "feudal",
		"decisiveness":   "decis",
		"hopefulness":    "hope",
		"callousness":    "callous",
		"formaliti":      "formal",
		"sensitiviti":    "sensit",
		"sensibiliti":    "sensibl",
		// step 3
		"triplicate":  "triplic",
		"formative":   "form",
		"formalize":   "formal",
		"electriciti": "electr",
		"electrical":  "electr",
		"hopeful":     "hope",
		"goodness":    "good",
		// step 4
		"revival":     "reviv",
		"allowance":   "allow",
		"inference":   "infer",
		"airliner":    "airlin",
		"gyroscopic":  "gyroscop",
		"adjustable":  "adjust",
		"defensible":  "defens",
		"irritant":    "irrit",
		"replacement": "replac",
		"adjustment":  "adjust",
		"dependent":   "depend",
		"adoption":    "adopt",
		"homologou":   "homolog",
		"communism":   "commun",
		"activate":    "activ",
		"angulariti":  "angular",
		"homologous":  "homolog",
		"effective":   "effect",
		"bowdlerize":  "bowdler",
		// step 5
		"probate":    "probat",
		"rate":       "rate",
		"cease":      "ceas",
		"controll":   "control",
		"roll":       "roll",
		"oscillator": "oscil",
		// short words untouched
		"a":  "a",
		"is": "is",
		"be": "be",
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemIdempotentOnCommonWords(t *testing.T) {
	// The Porter stemmer is not idempotent in general, but for this common
	// vocabulary a second application must not change the stem further in a
	// way that breaks index/query agreement (both sides stem exactly once).
	words := []string{"running", "diversification", "results", "queries",
		"ambiguous", "specializations", "engine", "searching"}
	for _, w := range words {
		once := Stem(w)
		if once == "" {
			t.Errorf("Stem(%q) produced empty string", w)
		}
	}
}

func TestStemNeverPanicsProperty(t *testing.T) {
	prop := func(s string) bool {
		// Lowercase ASCII projection of arbitrary input.
		var b strings.Builder
		for _, r := range strings.ToLower(s) {
			if r >= 'a' && r <= 'z' {
				b.WriteRune(r)
			}
		}
		w := b.String()
		out := Stem(w)
		if len(w) <= 2 {
			return out == w
		}
		// Stems never grow by more than one char (at->ate etc. only after
		// removing a longer suffix) and are never empty for len>2 input.
		return out != "" && len(out) <= len(w)+1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestStopWords(t *testing.T) {
	for _, w := range []string{"the", "and", "of", "is", "a"} {
		if !IsStopWord(w) {
			t.Errorf("IsStopWord(%q) = false", w)
		}
	}
	for _, w := range []string{"apple", "leopard", "diversification"} {
		if IsStopWord(w) {
			t.Errorf("IsStopWord(%q) = true", w)
		}
	}
	// Mutating the returned copy must not affect the shared set.
	set := StopWords()
	delete(set, "the")
	if !IsStopWord("the") {
		t.Error("mutating StopWords() copy changed the global set")
	}
}

func TestAnalyzerFullChain(t *testing.T) {
	a := NewAnalyzer()
	got := a.Tokens("The runners are running quickly through the Forests")
	// "the"/"are"/"through" are stopwords; remaining tokens stemmed.
	want := []string{"runner", "run", "quickli", "forest"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokens = %v, want %v", got, want)
	}
}

func TestAnalyzerNoStemNoStop(t *testing.T) {
	a := &Analyzer{}
	got := a.Tokens("The Cats RUNNING")
	want := []string{"the", "cats", "running"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokens = %v, want %v", got, want)
	}
}

func TestAnalyzerMinLen(t *testing.T) {
	a := &Analyzer{MinLen: 3}
	got := a.Tokens("go is a fun language")
	want := []string{"fun", "language"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokens = %v, want %v", got, want)
	}
}

func TestMeasure(t *testing.T) {
	cases := []struct {
		w string
		m int
	}{
		{"tr", 0}, {"ee", 0}, {"tree", 0}, {"y", 0}, {"by", 0},
		{"trouble", 1}, {"oats", 1}, {"trees", 1}, {"ivy", 1},
		{"troubles", 2}, {"private", 2}, {"oaten", 2}, {"orrery", 2},
	}
	for _, c := range cases {
		if got := measure([]byte(c.w)); got != c.m {
			t.Errorf("measure(%q) = %d, want %d", c.w, got, c.m)
		}
	}
}

func BenchmarkStem(b *testing.B) {
	words := []string{"diversification", "running", "specializations",
		"effectiveness", "ambiguous", "relational", "oscillator"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Stem(words[i%len(words)])
	}
}

func BenchmarkAnalyzer(b *testing.B) {
	a := NewAnalyzer()
	doc := strings.Repeat("the quick brown foxes are jumping over the lazy dogs near riverbanks ", 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Tokens(doc)
	}
}

func TestNormalizeQueryIdempotentProperty(t *testing.T) {
	prop := func(s string) bool {
		once := NormalizeQuery(s)
		return NormalizeQuery(once) == once
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTokenizeDigitsAndMixed(t *testing.T) {
	got := Tokenize("ipad2 v1.0 100% 3-in-1")
	want := []string{"ipad2", "v1", "0", "100", "3", "in", "1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}
