package engine

import (
	"context"

	"repro/internal/core"
	"repro/internal/exec"
)

// SearchFusedStamped runs the fused execution plan: ONE Block-Max
// MaxScore pass over the base segment produces the diversified SERP for
// an ambiguous query. As the scan's merged hit stream is materialized,
// each document's snippet surrogate is counted out of the forward index
// (no snippet string, no tokenization at all), streamed through the
// utility scorer against the plan's cached aspect vectors, and offered to
// the per-specialization bounded heaps of Algorithm 2 — retrieval,
// materialization, scoring and selection over one shared cursor/heap
// state (exec.FusedState) instead of four passes.
//
// Output is bit-identical to the staged plan over the same snapshot at
// any shard count: the scatter-gather inside RetrieveBatchOpts merges
// shard hit lists deterministically (score desc, doc asc) BEFORE the
// fused operator sees them, so the per-aspect heaps consume the same
// globally ordered stream regardless of how the index is partitioned.
//
// Requires a quiescent snapshot (the batch-built shape); a snapshot with
// pending mutations returns exec.ErrNotFusable. The second return is the
// snapshot epoch, as in SearchStamped.
//
// No serving route selects this plan: measured against the staged hit
// path it is at parity (docs/PERFORMANCE.md, "Fused vs staged after the
// forward index"), both being the same retrieve → windows walk. It stays,
// signature and all, for the two callers that name it — the traced pass
// of benchmark/trace.go (exec.fused_scan_us) and the fused differential
// sweep — and because exec.FusedState is what a push-down of the operator
// to shard workers (ROADMAP item 3) builds on.
func (e *Engine) SearchFusedStamped(ctx context.Context, plan *exec.Plan) ([]core.Selected, uint64, error) {
	st := e.snapshot()
	defer st.unpin()
	if !st.quiet(st.mem.View()) {
		return nil, st.epoch, exec.ErrNotFusable
	}
	r, err := e.retrieve(ctx, st, []string{plan.Query}, []int{plan.NumCandidates})
	if err != nil {
		return nil, st.epoch, err
	}
	defer r.release()
	hits := r.hits[0]

	// P(d|q) normalization needs the min/max of the FULL score column, so
	// it runs over the completed hit list — the structural reason
	// per-aspect thresholds cannot feed back into this scan's block
	// skipping (see docs/ARCHITECTURE.md, "Query execution plan").
	var rn exec.RelNormalizer
	for i := range hits {
		rn.Observe(hits[i].Score)
	}

	// The plan's aspect vectors were interned under the facade's view of
	// the lexicon; pin the operator to this snapshot's (the same object
	// for the quiescent engine the fusability check just certified).
	pl := *plan
	pl.Lex = st.lex
	fs := exec.NewFusedState(&pl, len(hits))
	err = r.windows(ctx, 0, func(_ int, w hitWindow) {
		fs.Push(core.Doc{ID: w.DocID, Rank: w.Rank, Rel: rn.Rel(w.Score), IVec: w.vector(st.idf, nil)})
	})
	if err != nil {
		fs.Close()
		return nil, st.epoch, err
	}
	return fs.Finish(), st.epoch, nil
}
