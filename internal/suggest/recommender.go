// Package suggest implements the query-recommendation substrate of §3.1
// and the paper's Algorithm 1 (AmbiguousQueryDetect).
//
// The recommender follows the "search shortcuts" approach of Broccolo et
// al. (the algorithm the paper uses, cited as [7]): it learns, from the
// logical sessions mined by package qfg, which queries users eventually
// reached after submitting a given query — giving, for each query q, the
// set of candidate refinements together with the log-derived popularity
// f(q') Algorithm 1 filters on. Candidates are, by construction, queries
// present in the log, "for which related probabilities can be, thus,
// easily computed" (§3.1).
package suggest

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/qfg"
	"repro/internal/querylog"
	"repro/internal/text"
)

// Suggestion is one candidate refinement returned by the recommender.
type Suggestion struct {
	Query string
	Score float64 // session-evidence score (higher = stronger refinement)
	Freq  int     // f(q'): popularity of the suggestion in the training log
}

// Recommender is a session-based query recommender: the A(q) of
// Algorithm 1.
type Recommender struct {
	freq querylog.Freq
	// follow[q][q'] accumulates evidence that q' refines q: one unit per
	// session in which q' follows q, discounted by distance and boosted
	// for satisfactory (clicked) sessions.
	follow map[string]map[string]float64
	// shortcut index: term → final queries of satisfactory sessions, the
	// fallback route for queries with no direct session evidence.
	byTerm map[string]map[string]float64
	// clicks[q] counts submissions of q that received at least one click —
	// the click-through signal of the paper's future work (§6 ii).
	clicks map[string]int
}

// TrainOptions tunes recommender training.
type TrainOptions struct {
	// PositionDecay discounts pairs (q, q') that are d>1 steps apart in a
	// session by PositionDecay^(d-1). Default 0.8.
	PositionDecay float64
	// SatisfactoryBoost multiplies evidence from sessions that end with a
	// click. Default 1.5.
	SatisfactoryBoost float64
}

func (o TrainOptions) withDefaults() TrainOptions {
	if o.PositionDecay == 0 {
		o.PositionDecay = 0.8
	}
	if o.SatisfactoryBoost == 0 {
		o.SatisfactoryBoost = 1.5
	}
	return o
}

// Train builds a Recommender from logical sessions and the training-log
// popularity function.
func Train(sessions []qfg.Session, freq querylog.Freq, opts TrainOptions) *Recommender {
	opts = opts.withDefaults()
	r := &Recommender{
		freq:   freq,
		follow: make(map[string]map[string]float64),
		byTerm: make(map[string]map[string]float64),
		clicks: make(map[string]int),
	}
	for _, s := range sessions {
		boost := 1.0
		if s.Satisfactory() {
			boost = opts.SatisfactoryBoost
		}
		for _, rec := range s.Records {
			if len(rec.Clicks) > 0 {
				r.clicks[rec.Query]++
			}
		}
		qs := s.Queries()
		for i := 0; i < len(qs); i++ {
			decay := 1.0
			for j := i + 1; j < len(qs); j++ {
				if qs[j] == qs[i] {
					continue
				}
				r.addFollow(qs[i], qs[j], boost*decay)
				decay *= opts.PositionDecay
			}
		}
		// Shortcut index: the session's final query, keyed by the terms of
		// every query in the session.
		if s.Satisfactory() && len(qs) > 1 {
			final := qs[len(qs)-1]
			for _, q := range qs[:len(qs)-1] {
				for _, term := range text.Tokenize(q) {
					row := r.byTerm[term]
					if row == nil {
						row = make(map[string]float64)
						r.byTerm[term] = row
					}
					row[final] += boost
				}
			}
		}
	}
	return r
}

func (r *Recommender) addFollow(q, next string, w float64) {
	row := r.follow[q]
	if row == nil {
		row = make(map[string]float64)
		r.follow[q] = row
	}
	row[next] += w
}

// Freq exposes the popularity function f(·) the recommender was trained
// with.
func (r *Recommender) Freq() querylog.Freq { return r.freq }

// Clicks returns the number of clicked submissions of q observed in the
// training sessions.
func (r *Recommender) Clicks(q string) int { return r.clicks[q] }

// Queries returns, sorted, every query with direct session evidence: the
// queries some session followed with another, which Recommend answers
// without the shortcut fallback. They are the queries whose verdict can
// be mined ahead of time.
func (r *Recommender) Queries() []string {
	qs := make([]string, 0, len(r.follow))
	for q := range r.follow {
		qs = append(qs, q)
	}
	slices.Sort(qs)
	return qs
}

// Recommend returns up to max candidate refinements of q, the A(q) call of
// Algorithm 1. Direct session evidence is preferred; if q produced no
// session transitions (e.g. a slightly different surface form), the
// term-based shortcut index provides fallback candidates. Results are
// ordered by descending score with a deterministic tie-break.
func (r *Recommender) Recommend(q string, max int) []Suggestion {
	scores := make(map[string]float64)
	for to, w := range r.follow[q] {
		scores[to] += w
	}
	if len(scores) == 0 {
		// Fallback: aggregate shortcut evidence over q's terms.
		for _, term := range text.Tokenize(q) {
			for final, w := range r.byTerm[term] {
				if final == q {
					continue
				}
				scores[final] += w * 0.5
			}
		}
	}
	out := make([]Suggestion, 0, len(scores))
	for s, w := range scores {
		out = append(out, Suggestion{Query: s, Score: w, Freq: r.freq.Of(s)})
	}
	slices.SortFunc(out, func(a, b Suggestion) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		if a.Freq != b.Freq {
			return cmp.Compare(b.Freq, a.Freq)
		}
		return strings.Compare(a.Query, b.Query)
	})
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// IsSpecialization reports whether q2 states the information need of q1
// "more precisely" (the Boldi et al. terminology adopted in §3.1). The
// predicate is purely lexical: q2 must contain every token of q1 and add
// at least one token (tokens counted with their repeats). The session
// evidence the recommender is trained on supplies the behavioural part of
// the definition. Nothing is allocated: the tokens are compared where they
// stand in q1 and q2.
func IsSpecialization(q1, q2 string) bool {
	n1, n2 := countTokens(q1), countTokens(q2)
	if n2 <= n1 || n1 == 0 {
		return false
	}
	for tok, rest := text.NextToken(q1); tok != ""; tok, rest = text.NextToken(rest) {
		if !hasToken(q2, tok) {
			return false
		}
	}
	return true
}

func countTokens(q string) int {
	n := 0
	for tok, rest := text.NextToken(q); tok != ""; tok, rest = text.NextToken(rest) {
		n++
	}
	return n
}

func hasToken(q, tok string) bool {
	for t, rest := text.NextToken(q); t != ""; t, rest = text.NextToken(rest) {
		if text.SameToken(t, tok) {
			return true
		}
	}
	return false
}
