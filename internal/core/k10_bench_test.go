package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkSelectSmallK is the serving regime the k=10 inversion lives
// in: a few hundred candidates, a handful of specializations, k=10, where
// OptSelect's set-up rather than its heap work decides the comparison
// with xQuAD's 10 greedy passes.
func BenchmarkSelectSmallK(b *testing.B) {
	for _, shape := range []struct{ n, specs int }{{265, 2}, {500, 4}} {
		p := randomProblem(rand.New(rand.NewSource(9)), shape.n, shape.specs, 10)
		u := ComputeUtilities(p)
		for name, alg := range map[string]func(*Problem, *Utilities) []Selected{"optselect": OptSelect, "xquad": XQuAD} {
			b.Run(fmt.Sprintf("%s/n=%d/specs=%d", name, shape.n, shape.specs), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					alg(p, u)
				}
			})
		}
	}
}
