package suggest

import (
	"cmp"
	"slices"
	"strings"
)

// Specialization is one mined specialization q' of an ambiguous query q,
// with its log popularity f(q') and the probability P(q'|q) of
// Definition 1.
type Specialization struct {
	Query string
	Freq  int
	Prob  float64
	// Weight is the mass Prob is proportional to: f(q') plus
	// ClickWeight·clicks(q') when AmbiguousQueryDetect weighs clicks.
	// TopSpecializations renormalizes by it; 0 means Freq.
	Weight float64
}

// mass is the weight Prob is proportional to.
func (s Specialization) mass() float64 {
	if s.Weight != 0 {
		return s.Weight
	}
	return float64(s.Freq)
}

// DetectOptions configures AmbiguousQueryDetect.
type DetectOptions struct {
	// S is the popularity divisor s of Algorithm 1: a candidate q' is kept
	// only if f(q') >= f(q)/s. Default 10.
	S float64
	// MaxCandidates bounds the A(q) call. Default 50.
	MaxCandidates int
	// RequireSpecialization additionally filters candidates through the
	// lexical IsSpecialization predicate (on by default), keeping only
	// true refinements of q among the session followers.
	RequireSpecialization bool
	// ClickWeight implements the paper's §6 (ii) future-work extension:
	// the probability of a specialization is computed from
	// f(q') + ClickWeight·clicks(q') instead of raw frequency, rewarding
	// refinements users were actually satisfied by. 0 disables it
	// (the paper's published Definition 1).
	ClickWeight float64
}

// DefaultDetectOptions returns the configuration used in the reproduction
// experiments.
func DefaultDetectOptions() DetectOptions {
	return DetectOptions{S: 10, MaxCandidates: 50, RequireSpecialization: true}
}

func (o DetectOptions) withDefaults() DetectOptions {
	if o.S == 0 {
		o.S = 10
	}
	if o.MaxCandidates == 0 {
		o.MaxCandidates = 50
	}
	return o
}

// AmbiguousQueryDetect is the paper's Algorithm 1. Given the submitted
// query q, a trained recommendation algorithm A and the popularity
// function f mined from the log, it computes the set S_q of popular
// specializations of q:
//
//  1. Ŝ_q ← A(q)
//  2. S_q ← { q' ∈ Ŝ_q | f(q') ≥ f(q)/s }
//  3. if |S_q| ≥ 2 return S_q, else return ∅
//
// and attaches the Definition 1 probabilities
// P(q'|q) = f(q') / Σ_{q”∈S_q} f(q”). A non-empty return value means q
// is ambiguous/faceted and its results should be diversified.
func AmbiguousQueryDetect(q string, rec *Recommender, opts DetectOptions) []Specialization {
	opts = opts.withDefaults()
	candidates := rec.Recommend(q, opts.MaxCandidates)
	fq := float64(rec.Freq().Of(q))
	threshold := fq / opts.S

	var specs []Specialization
	for _, c := range candidates {
		if opts.RequireSpecialization && !IsSpecialization(q, c.Query) {
			continue
		}
		if float64(c.Freq) >= threshold && c.Freq > 0 {
			specs = append(specs, Specialization{Query: c.Query, Freq: c.Freq})
		}
	}
	if len(specs) < 2 {
		return nil
	}
	// Definition 1 probabilities, optionally click-weighted (§6 ii).
	total := 0.0
	for i := range specs {
		specs[i].Weight = float64(specs[i].Freq) + opts.ClickWeight*float64(rec.Clicks(specs[i].Query))
		total += specs[i].Weight
	}
	for i := range specs {
		specs[i].Prob = specs[i].Weight / total
	}
	// Deterministic order: by probability descending, then query.
	slices.SortFunc(specs, func(a, b Specialization) int {
		if a.Prob != b.Prob {
			return cmp.Compare(b.Prob, a.Prob)
		}
		return strings.Compare(a.Query, b.Query)
	})
	return specs
}

// TopSpecializations truncates specs to the k most probable and
// renormalizes the probabilities by the weights they were computed from
// (Specialization.Weight), so click weighting survives the cut. §3.1.3:
// "if |S_q| > k we select from S_q the k specializations with the largest
// probabilities."
func TopSpecializations(specs []Specialization, k int) []Specialization {
	if k <= 0 || len(specs) <= k {
		return specs
	}
	out := make([]Specialization, k)
	copy(out, specs[:k])
	total := 0.0
	for _, s := range out {
		total += s.mass()
	}
	if total > 0 {
		for i := range out {
			out[i].Prob = out[i].mass() / total
		}
	}
	return out
}
