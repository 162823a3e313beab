package text

// Porter stemming algorithm, implemented from the original description:
// M. F. Porter, "An algorithm for suffix stripping", Program 14(3), 1980.
// This is the stemmer named in §5 of the paper for indexing ClueWeb-B.
//
// The implementation operates on ASCII lowercase bytes; callers should
// lowercase first (the package tokenizer already does).

// Stem returns the Porter stem of word. Words shorter than three characters
// are returned unchanged, per the original algorithm. A stem that is a
// prefix of word — most are: the algorithm mostly strips suffixes — is
// returned as a substring of it.
func Stem(word string) string {
	if len(word) <= 2 {
		return word
	}
	b := []byte(word)
	b = step1a(b)
	b = step1b(b)
	b = step1c(b)
	b = step2(b)
	b = step3(b)
	b = step4(b)
	b = step5a(b)
	b = step5b(b)
	if len(b) <= len(word) && string(b) == word[:len(b)] {
		return word[:len(b)]
	}
	return string(b)
}

// isCons reports whether b[i] is a consonant in Porter's sense: a letter
// other than a,e,i,o,u; 'y' is a consonant when it is the first letter or
// follows a vowel, otherwise it is a vowel.
func isCons(b []byte, i int) bool {
	switch b[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !isCons(b, i-1)
	default:
		return true
	}
}

// measure returns m, the number of VC sequences in the word form
// [C](VC)^m[V].
func measure(b []byte) int {
	n := len(b)
	i := 0
	// Skip initial consonants.
	for i < n && isCons(b, i) {
		i++
	}
	m := 0
	for i < n {
		// In a vowel run.
		for i < n && !isCons(b, i) {
			i++
		}
		if i >= n {
			break
		}
		m++
		for i < n && isCons(b, i) {
			i++
		}
	}
	return m
}

// hasVowel reports whether b contains a vowel.
func hasVowel(b []byte) bool {
	for i := range b {
		if !isCons(b, i) {
			return true
		}
	}
	return false
}

// endsDoubleCons reports whether b ends with a doubled consonant (*d).
func endsDoubleCons(b []byte) bool {
	n := len(b)
	return n >= 2 && b[n-1] == b[n-2] && isCons(b, n-1)
}

// endsCVC reports whether b ends consonant-vowel-consonant where the final
// consonant is not w, x or y (*o).
func endsCVC(b []byte) bool {
	n := len(b)
	if n < 3 {
		return false
	}
	if !isCons(b, n-3) || isCons(b, n-2) || !isCons(b, n-1) {
		return false
	}
	switch b[n-1] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

func hasSuffix(b []byte, s string) bool {
	if len(b) < len(s) {
		return false
	}
	off := len(b) - len(s)
	for i := 0; i < len(s); i++ {
		if b[off+i] != s[i] {
			return false
		}
	}
	return true
}

// replaceIf replaces suffix old with new when the stem before old has
// measure > minM. It reports whether old matched (regardless of whether the
// replacement fired), so callers can stop at the first matching rule.
func replaceIf(b []byte, old, new string, minM int) ([]byte, bool) {
	if !hasSuffix(b, old) {
		return b, false
	}
	stem := b[:len(b)-len(old)]
	if measure(stem) > minM {
		return append(stem, new...), true
	}
	return b, true
}

func step1a(b []byte) []byte {
	switch {
	case hasSuffix(b, "sses"):
		return b[:len(b)-2] // sses -> ss
	case hasSuffix(b, "ies"):
		return b[:len(b)-2] // ies -> i
	case hasSuffix(b, "ss"):
		return b
	case hasSuffix(b, "s"):
		return b[:len(b)-1]
	}
	return b
}

func step1b(b []byte) []byte {
	if hasSuffix(b, "eed") {
		if measure(b[:len(b)-3]) > 0 {
			return b[:len(b)-1] // eed -> ee
		}
		return b
	}
	var stem []byte
	switch {
	case hasSuffix(b, "ed") && hasVowel(b[:len(b)-2]):
		stem = b[:len(b)-2]
	case hasSuffix(b, "ing") && hasVowel(b[:len(b)-3]):
		stem = b[:len(b)-3]
	default:
		return b
	}
	// Cleanup after removing -ed/-ing.
	switch {
	case hasSuffix(stem, "at"), hasSuffix(stem, "bl"), hasSuffix(stem, "iz"):
		return append(stem, 'e')
	case endsDoubleCons(stem):
		last := stem[len(stem)-1]
		if last != 'l' && last != 's' && last != 'z' {
			return stem[:len(stem)-1]
		}
		return stem
	case measure(stem) == 1 && endsCVC(stem):
		return append(stem, 'e')
	}
	return stem
}

func step1c(b []byte) []byte {
	if hasSuffix(b, "y") && hasVowel(b[:len(b)-1]) {
		b[len(b)-1] = 'i'
	}
	return b
}

var step2Rules = []struct{ old, new string }{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"}, {"anci", "ance"},
	{"izer", "ize"}, {"abli", "able"}, {"alli", "al"}, {"entli", "ent"},
	{"eli", "e"}, {"ousli", "ous"}, {"ization", "ize"}, {"ation", "ate"},
	{"ator", "ate"}, {"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"},
	{"ousness", "ous"}, {"aliti", "al"}, {"iviti", "ive"}, {"biliti", "ble"},
}

func step2(b []byte) []byte {
	for _, r := range step2Rules {
		var matched bool
		if b, matched = replaceIf(b, r.old, r.new, 0); matched {
			return b
		}
	}
	return b
}

var step3Rules = []struct{ old, new string }{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
	{"ical", "ic"}, {"ful", ""}, {"ness", ""},
}

func step3(b []byte) []byte {
	for _, r := range step3Rules {
		var matched bool
		if b, matched = replaceIf(b, r.old, r.new, 0); matched {
			return b
		}
	}
	return b
}

var step4Suffixes = []string{
	"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
	"ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
}

func step4(b []byte) []byte {
	for _, suf := range step4Suffixes {
		if !hasSuffix(b, suf) {
			continue
		}
		stem := b[:len(b)-len(suf)]
		if measure(stem) <= 1 {
			return b
		}
		if suf == "ion" {
			n := len(stem)
			if n == 0 || (stem[n-1] != 's' && stem[n-1] != 't') {
				return b
			}
		}
		return stem
	}
	return b
}

func step5a(b []byte) []byte {
	if !hasSuffix(b, "e") {
		return b
	}
	stem := b[:len(b)-1]
	m := measure(stem)
	if m > 1 {
		return stem
	}
	if m == 1 && !endsCVC(stem) {
		return stem
	}
	return b
}

func step5b(b []byte) []byte {
	if measure(b) > 1 && endsDoubleCons(b) && b[len(b)-1] == 'l' {
		return b[:len(b)-1]
	}
	return b
}
