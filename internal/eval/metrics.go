// Package eval implements the official metrics of the TREC 2009 Web
// track's Diversity Task used in the paper's §5: α-NDCG (Clarke et al.,
// SIGIR'08) and intent-aware precision IA-P (Agrawal et al., WSDM'09),
// plus the classic metrics (Precision@k, AP, NDCG) and the diversity
// extensions ERR-IA and subtopic recall used by the ablation harnesses.
//
// All metrics are computed per topic and averaged over topics by the
// report helpers, following standard TREC practice. As in the paper,
// α-NDCG is computed with α = 0.5 by default, "to give an equal weight to
// relevance and diversity".
package eval

import (
	"math"
	"sort"

	"repro/internal/trec"
)

// DefaultAlpha is the α used throughout the paper's evaluation.
const DefaultAlpha = 0.5

// DefaultCutoffs are the five rank cutoffs of Table 3.
var DefaultCutoffs = []int{5, 10, 20, 100, 1000}

// AlphaNDCG computes α-NDCG at each cutoff for one topic's ranking.
// Gain of the i-th document: Σ_s J(d_i,s) · (1−α)^{c_s(i)}, where c_s(i)
// counts the documents ranked before i that are relevant to subtopic s;
// gains are discounted by log₂(1+rank) and normalized by the ideal gain
// vector obtained greedily over the judged pool (the standard tractable
// approximation of the NP-hard ideal ordering).
//
// Topics with no relevant documents score 0 at every cutoff.
func AlphaNDCG(ranking []string, qrels *trec.Qrels, topic int, alpha float64, cutoffs []int) map[int]float64 {
	out := make(map[int]float64, len(cutoffs))
	maxK := maxCutoff(cutoffs)
	subtopics := qrels.Subtopics(topic)
	if len(subtopics) == 0 {
		for _, k := range cutoffs {
			out[k] = 0
		}
		return out
	}

	dcg := gainVectorDCG(ranking, qrels, topic, subtopics, alpha, maxK)
	idcg := idealDCG(qrels, topic, subtopics, alpha, maxK)

	for _, k := range cutoffs {
		i := k
		if i > len(dcg) {
			i = len(dcg)
		}
		j := k
		if j > len(idcg) {
			j = len(idcg)
		}
		d := lastOrZero(dcg, i)
		id := lastOrZero(idcg, j)
		if id == 0 {
			out[k] = 0
		} else {
			out[k] = d / id
		}
	}
	return out
}

func maxCutoff(cutoffs []int) int {
	m := 0
	for _, k := range cutoffs {
		if k > m {
			m = k
		}
	}
	return m
}

func lastOrZero(cum []float64, i int) float64 {
	if i <= 0 || len(cum) == 0 {
		return 0
	}
	if i > len(cum) {
		i = len(cum)
	}
	return cum[i-1]
}

// gainVectorDCG returns the cumulative discounted gain at each position of
// the ranking (up to maxK).
func gainVectorDCG(ranking []string, qrels *trec.Qrels, topic int, subtopics []int, alpha float64, maxK int) []float64 {
	n := len(ranking)
	if n > maxK {
		n = maxK
	}
	counts := make(map[int]int, len(subtopics))
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		g := 0.0
		for _, s := range subtopics {
			if qrels.Relevant(topic, s, ranking[i]) {
				g += math.Pow(1-alpha, float64(counts[s]))
				counts[s]++
			}
		}
		total += g / math.Log2(float64(i)+2)
		cum[i] = total
	}
	return cum
}

// idealDCG computes the cumulative discounted gain of the greedy ideal
// ranking over the topic's judged pool.
func idealDCG(qrels *trec.Qrels, topic int, subtopics []int, alpha float64, maxK int) []float64 {
	pool := qrels.JudgedPool(topic)
	counts := make(map[int]int, len(subtopics))
	used := make(map[string]bool, len(pool))
	var cum []float64
	total := 0.0
	for pos := 0; pos < maxK && pos < len(pool); pos++ {
		bestDoc := ""
		bestGain := -1.0
		for _, d := range pool {
			if used[d] {
				continue
			}
			g := 0.0
			for _, s := range subtopics {
				if qrels.Relevant(topic, s, d) {
					g += math.Pow(1-alpha, float64(counts[s]))
				}
			}
			if g > bestGain {
				bestGain = g
				bestDoc = d
			}
		}
		if bestDoc == "" || bestGain <= 0 {
			break
		}
		used[bestDoc] = true
		for _, s := range subtopics {
			if qrels.Relevant(topic, s, bestDoc) {
				counts[s]++
			}
		}
		total += bestGain / math.Log2(float64(pos)+2)
		cum = append(cum, total)
	}
	return cum
}

// IAPrecision computes intent-aware precision at each cutoff:
// IA-P@k = Σ_s P(s|q) · P_s@k, where P_s@k is precision at k counting
// only documents relevant to subtopic s. weights maps subtopic → P(s|q);
// nil means the uniform distribution over the topic's judged subtopics
// (standard TREC practice).
func IAPrecision(ranking []string, qrels *trec.Qrels, topic int, weights map[int]float64, cutoffs []int) map[int]float64 {
	out := make(map[int]float64, len(cutoffs))
	subtopics := qrels.Subtopics(topic)
	if len(subtopics) == 0 {
		for _, k := range cutoffs {
			out[k] = 0
		}
		return out
	}
	w := weights
	if w == nil {
		w = make(map[int]float64, len(subtopics))
		for _, s := range subtopics {
			w[s] = 1 / float64(len(subtopics))
		}
	}
	maxK := maxCutoff(cutoffs)
	n := len(ranking)
	if n > maxK {
		n = maxK
	}
	// hits[s] at position i = cumulative count of docs relevant to s.
	sort.Ints(subtopics)
	cum := make(map[int][]int, len(subtopics))
	for _, s := range subtopics {
		c := make([]int, n)
		cnt := 0
		for i := 0; i < n; i++ {
			if qrels.Relevant(topic, s, ranking[i]) {
				cnt++
			}
			c[i] = cnt
		}
		cum[s] = c
	}
	for _, k := range cutoffs {
		iaP := 0.0
		for _, s := range subtopics {
			c := cum[s]
			hits := 0
			if len(c) > 0 {
				i := k
				if i > len(c) {
					i = len(c)
				}
				hits = c[i-1]
			}
			iaP += w[s] * float64(hits) / float64(k)
		}
		out[k] = iaP
	}
	return out
}

// SubtopicRecall returns S-recall@k: the fraction of the topic's judged
// subtopics covered by at least one relevant document in the top k.
func SubtopicRecall(ranking []string, qrels *trec.Qrels, topic, k int) float64 {
	subtopics := qrels.Subtopics(topic)
	if len(subtopics) == 0 {
		return 0
	}
	n := len(ranking)
	if n > k {
		n = k
	}
	covered := 0
	for _, s := range subtopics {
		for i := 0; i < n; i++ {
			if qrels.Relevant(topic, s, ranking[i]) {
				covered++
				break
			}
		}
	}
	return float64(covered) / float64(len(subtopics))
}

// ERRIA computes intent-aware expected reciprocal rank at each cutoff with
// binary judgements (stop probability 0.5 at a relevant document):
// ERR-IA@k = Σ_s w_s Σ_{i≤k} (1/i)·r·Π_{j<i}(1−r_j).
func ERRIA(ranking []string, qrels *trec.Qrels, topic int, weights map[int]float64, cutoffs []int) map[int]float64 {
	const stop = 0.5
	out := make(map[int]float64, len(cutoffs))
	subtopics := qrels.Subtopics(topic)
	if len(subtopics) == 0 {
		for _, k := range cutoffs {
			out[k] = 0
		}
		return out
	}
	w := weights
	if w == nil {
		w = make(map[int]float64, len(subtopics))
		for _, s := range subtopics {
			w[s] = 1 / float64(len(subtopics))
		}
	}
	maxK := maxCutoff(cutoffs)
	n := len(ranking)
	if n > maxK {
		n = maxK
	}
	// perSub[s][i]: cumulative ERR for subtopic s after position i+1.
	perSub := make(map[int][]float64, len(subtopics))
	for _, s := range subtopics {
		cont := 1.0
		cum := make([]float64, n)
		total := 0.0
		for i := 0; i < n; i++ {
			if qrels.Relevant(topic, s, ranking[i]) {
				total += cont * stop / float64(i+1)
				cont *= 1 - stop
			}
			cum[i] = total
		}
		perSub[s] = cum
	}
	for _, k := range cutoffs {
		v := 0.0
		for _, s := range subtopics {
			v += w[s] * lastOrZero(perSub[s], min(k, n))
		}
		out[k] = v
	}
	return out
}
