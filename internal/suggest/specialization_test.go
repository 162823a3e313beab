package suggest

import (
	"math"
	"testing"
	"unicode"

	"repro/internal/text"
)

// Truncation keeps the click weighting detection used: with ClickWeight 2
// the leopard specializations weigh 7 (mac os x: f=3, 2 clicked), 4 (tank:
// f=2, 1 clicked) and 1 (pictures), so the two kept renormalize to 7/11
// and 4/11 — not to their raw frequencies' 3/5 and 2/5.
func TestTopSpecializationsKeepsClickWeights(t *testing.T) {
	r, _ := trained(t)
	opts := DefaultDetectOptions()
	opts.ClickWeight = 2
	specs := AmbiguousQueryDetect("leopard", r, opts)
	if len(specs) != 3 {
		t.Fatalf("specs = %+v, want 3", specs)
	}
	top := TopSpecializations(specs, 2)
	if top[0].Query != "leopard mac os x" || top[1].Query != "leopard tank" {
		t.Fatalf("top = %+v", top)
	}
	if math.Abs(top[0].Prob-7.0/11) > 1e-12 || math.Abs(top[1].Prob-4.0/11) > 1e-12 {
		t.Errorf("renormalized probs = %v, %v, want 7/11, 4/11", top[0].Prob, top[1].Prob)
	}
	// Without clicks the weights are the frequencies, bit for bit.
	plain := TopSpecializations(AmbiguousQueryDetect("leopard", r, DefaultDetectOptions()), 2)
	if plain[0].Prob != 3.0/5 || plain[1].Prob != 2.0/5 {
		t.Errorf("unweighted probs = %v, %v, want 3/5, 2/5", plain[0].Prob, plain[1].Prob)
	}
}

// refIsSpecialization is IsSpecialization as it was written before it
// stopped allocating: token slices and a set. The oracle of the fuzz
// target below.
func refIsSpecialization(q1, q2 string) bool {
	t1, t2 := refTokenize(q1), refTokenize(q2)
	if len(t2) <= len(t1) || len(t1) == 0 {
		return false
	}
	set := make(map[string]bool, len(t2))
	for _, t := range t2 {
		set[t] = true
	}
	for _, t := range t1 {
		if !set[t] {
			return false
		}
	}
	return true
}

// refTokenize is the rune-by-rune tokenizer IsSpecialization used to
// call.
func refTokenize(s string) []string {
	var out []string
	var cur []rune
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			cur = append(cur, unicode.ToLower(r))
		} else if len(cur) > 0 {
			out = append(out, string(cur))
			cur = cur[:0]
		}
	}
	if len(cur) > 0 {
		out = append(out, string(cur))
	}
	return out
}

var specializationSeeds = [][2]string{
	{"leopard", "leopard tank"}, {"leopard", "leopard"}, {"", "a b"},
	{"a a", "a b c"}, {"a b", "a a a"}, {"Jaguar", "jaguar CARS"},
	{"İ", "i x"}, {"i", "İ x"}, {"ß", "SS ß"}, {"σ", "ΟΔΟΣ σ"},
	{"ς", "σ ς x"}, {"a\xffb", "a b c"}, {"\xff", "\xfe \xff"},
	{"ǅ", "ǆ x"}, {"ab", "a b"}, {"a-b", "b a c"},
}

func TestIsSpecializationMatchesReference(t *testing.T) {
	for _, c := range specializationSeeds {
		checkSpecialization(t, c[0], c[1])
		checkSpecialization(t, c[1], c[0])
	}
}

func FuzzIsSpecialization(f *testing.F) {
	for _, c := range specializationSeeds {
		f.Add(c[0], c[1])
	}
	f.Fuzz(checkSpecialization)
}

func checkSpecialization(t *testing.T, q1, q2 string) {
	if got, want := IsSpecialization(q1, q2), refIsSpecialization(q1, q2); got != want {
		t.Fatalf("IsSpecialization(%q, %q) = %v, want %v", q1, q2, got, want)
	}
	if got, want := text.Tokenize(q1), refTokenize(q1); len(got) != len(want) {
		t.Fatalf("Tokenize(%q) = %q, want %q", q1, got, want)
	}
}

func TestIsSpecializationAllocatesNothing(t *testing.T) {
	for _, c := range specializationSeeds {
		if n := testing.AllocsPerRun(100, func() { IsSpecialization(c[0], c[1]) }); n != 0 {
			t.Errorf("IsSpecialization(%q, %q): %v allocations, want 0", c[0], c[1], n)
		}
	}
}
