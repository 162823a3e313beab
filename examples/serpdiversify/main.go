// SERP diversification with all algorithms side by side, on a hand-written
// news-style corpus for the query "jaguar" (car vs animal vs the guitar):
// index the corpus, build R_q and the specialization lists R_q′, and
// compare the baseline, OptSelect, xQuAD, IASelect and MMR orderings.
//
//	go run ./examples/serpdiversify
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/engine"
)

func main() {
	eng, err := engine.Build(corpus(), engine.Config{})
	if err != nil {
		log.Fatal(err)
	}

	const query = "jaguar"
	// Specializations as they would be mined from a query log, with user
	// popularity: the car dominates, the animal second, the guitar niche.
	specs := []struct {
		q    string
		prob float64
	}{
		{"jaguar car price", 0.55},
		{"jaguar animal habitat", 0.30},
		{"jaguar guitar fender", 0.15},
	}

	// R_q: everything the engine finds for the ambiguous query.
	results := eng.Search(query, 20)
	if len(results) == 0 {
		log.Fatal("no results for jaguar")
	}
	candidates := make([]core.Doc, len(results))
	for i, r := range results {
		candidates[i] = core.Doc{
			ID:   r.DocID,
			Rank: r.Rank,
			Rel:  r.Score / results[0].Score,
			IVec: eng.IVectorOfText(r.Snippet),
		}
	}
	problem := &core.Problem{
		Query:      query,
		Candidates: candidates,
		K:          6,
		Lambda:     0.15,
		Lex:        eng.Lexicon(),
	}
	for _, s := range specs {
		var rs []core.SpecResult
		for _, r := range eng.Search(s.q, 5) {
			rs = append(rs, core.SpecResult{
				ID: r.DocID, Rank: r.Rank, IVec: eng.IVectorOfText(r.Snippet),
			})
		}
		problem.Specs = append(problem.Specs, core.Specialization{
			Query: s.q, Prob: s.prob, Results: rs,
		})
	}

	fmt.Printf("query %q, k=%d, specializations:\n", query, problem.K)
	for _, s := range problem.Specs {
		fmt.Printf("  P=%.2f %q\n", s.Prob, s.Query)
	}
	fmt.Println()

	columns := []core.Algorithm{core.AlgBaseline, core.AlgOptSelect, core.AlgXQuAD, core.AlgIASelect, core.AlgMMR}
	serps := make(map[core.Algorithm][]core.Selected, len(columns))
	for _, alg := range columns {
		serps[alg] = core.Diversify(alg, problem)
	}

	fmt.Printf("%-4s", "rank")
	for _, alg := range columns {
		fmt.Printf(" %-14s", alg)
	}
	fmt.Println()
	for i := 0; i < problem.K; i++ {
		fmt.Printf("%-4d", i+1)
		for _, alg := range columns {
			id := "-"
			if i < len(serps[alg]) {
				id = serps[alg][i].ID
			}
			fmt.Printf(" %-14s", id)
		}
		fmt.Println()
	}
}

// corpus: 6 car docs (they dominate plain relevance), 3 animal docs,
// 2 guitar docs, plus chaff.
func corpus() []engine.Document {
	return []engine.Document{
		{ID: "car-review", Title: "Jaguar XF review", Body: "The new Jaguar XF car delivers a smooth ride with a powerful engine and a luxury interior at a premium price for sedan buyers"},
		{ID: "car-price", Title: "Jaguar car price list", Body: "Jaguar car price list for every model year including the XE XF and F type with dealer quotes and financing options for buyers"},
		{ID: "car-history", Title: "Jaguar cars history", Body: "The history of Jaguar cars from the Swallow Sidecar company to the modern luxury car brand with racing heritage at Le Mans"},
		{ID: "car-dealer", Title: "Jaguar dealership", Body: "Find a certified Jaguar car dealer near you with service centers spare parts and test drives for all current models and price offers"},
		{ID: "car-electric", Title: "Jaguar electric", Body: "Jaguar announced an electric car lineup with long range batteries fast charging and sporty performance for the premium market"},
		{ID: "car-suv", Title: "Jaguar SUV", Body: "The Jaguar F pace SUV combines car comfort with off road ability and a choice of petrol diesel and hybrid engines at a mid price"},
		{ID: "animal-hab", Title: "Jaguar habitat", Body: "The jaguar is a big cat whose habitat spans rainforest wetlands and grassland across the Americas where the animal hunts at night"},
		{ID: "animal-diet", Title: "Jaguar diet", Body: "As an apex predator the jaguar animal feeds on capybara deer and caiman using a powerful bite unique among big cats in its habitat"},
		{ID: "animal-conserv", Title: "Jaguar conservation", Body: "Conservation programs protect the jaguar animal from habitat loss and poaching across protected corridors in the Amazon basin"},
		{ID: "guitar-fender", Title: "Fender Jaguar", Body: "The Fender Jaguar guitar introduced in 1962 features a short scale offset body and bright tone favored by surf and indie players"},
		{ID: "guitar-setup", Title: "Jaguar guitar setup", Body: "How to set up a Fender Jaguar guitar adjusting the bridge tremolo and pickups for stable tuning and classic fender sound"},
		{ID: "chaff-os", Title: "Operating systems", Body: "A survey of desktop operating systems covering kernels schedulers and file systems with no mention of cats or cars at all"},
	}
}
