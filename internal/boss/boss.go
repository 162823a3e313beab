// Package boss simulates the external web search API used by the paper's
// Appendix C evaluation (the Yahoo! BOSS service, long since retired): a
// non-diversified, relevance-only ranked source of results with titles,
// URLs and abstracts. The simulator serves results from the local engine
// substrate, so the utility-ratio experiment of Figure 1 exercises exactly
// the paper's code path — fetch R_q from an external engine, re-rank it
// with OptSelect against the mined specializations, and compare utilities.
package boss

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
)

// Result mirrors the fields of a BOSS-style API response entry.
type Result struct {
	Title    string
	URL      string
	Abstract string // the snippet used as document surrogate
	Rank     int    // 1-based
}

// Client is a handle to the simulated external engine.
type Client struct {
	eng *engine.Engine
}

// New wraps the given engine as an external search API.
func New(eng *engine.Engine) *Client { return &Client{eng: eng} }

// Search returns the top-n non-diversified results for the query, with
// abstracts (query-biased snippets) attached — the shape of a BOSS
// web-search call.
func (c *Client) Search(query string, n int) []Result {
	hits := c.eng.Search(query, n)
	out := make([]Result, len(hits))
	for i, h := range hits {
		out[i] = Result{
			Title:    h.DocID,
			URL:      fmt.Sprintf("http://boss.example/%s", h.DocID),
			Abstract: h.Snippet,
			Rank:     h.Rank,
		}
	}
	return out
}

// CandidateDocs converts a BOSS result list into diversification
// candidates R_q: relevance decays with rank (1/rank, normalized so the
// top result has P(d|q)=1) and surrogate vectors come from the abstracts.
func (c *Client) CandidateDocs(results []Result) []core.Doc {
	docs := make([]core.Doc, len(results))
	for i, r := range results {
		docs[i] = core.Doc{
			ID:   r.Title,
			Rank: r.Rank,
			Rel:  1 / float64(r.Rank),
			IVec: c.eng.IVectorOfText(r.Abstract),
		}
	}
	return docs
}

// SpecResults converts a BOSS result list into a specialization's R_q′.
func (c *Client) SpecResults(results []Result) []core.SpecResult {
	out := make([]core.SpecResult, len(results))
	for i, r := range results {
		out[i] = core.SpecResult{
			ID:   r.Title,
			Rank: r.Rank,
			IVec: c.eng.IVectorOfText(r.Abstract),
		}
	}
	return out
}
