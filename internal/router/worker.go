package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// Worker is the shard-serving half of the distributed tier: a thin HTTP
// facade over engine.SearchShard. It holds no pipeline — no query
// log, no recommender — because workers only run the document scoring
// phase; everything query-understanding-shaped stays on the router.
//
// The engine is published atomically so a worker can bind its listener
// (and answer liveness probes) before the deterministic build finishes;
// until Publish, /readyz reports not-ready and /shard/search sheds 503.
type Worker struct {
	eng           atomic.Pointer[engine.Engine]
	searches      atomic.Int64
	shed          atomic.Int64
	budgetExpired atomic.Int64 // searches cut short by a propagated budget
}

// NewWorker returns a worker with no engine yet (not ready). Pass a
// non-nil engine to start ready.
func NewWorker(e *engine.Engine) *Worker {
	w := &Worker{}
	if e != nil {
		w.eng.Store(e)
	}
	return w
}

// Publish atomically installs the engine; the worker reports ready and
// serves shard searches from this point on.
func (w *Worker) Publish(e *engine.Engine) { w.eng.Store(e) }

// Ready reports whether the engine has been published.
func (w *Worker) Ready() bool { return w.eng.Load() != nil }

// Handler returns the worker's route table: /healthz (liveness),
// /readyz (readiness), POST /shard/search (per-shard retrieval).
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", w.handleHealthz)
	mux.HandleFunc("GET /readyz", w.handleReadyz)
	mux.HandleFunc("POST /shard/search", w.handleShardSearch)
	return mux
}

func (w *Worker) handleHealthz(wr http.ResponseWriter, r *http.Request) {
	writeJSON(wr, http.StatusOK, map[string]any{
		"status":         "ok",
		"ready":          w.Ready(),
		"searches":       w.searches.Load(),
		"shed":           w.shed.Load(),
		"budget_expired": w.budgetExpired.Load(),
	})
}

func (w *Worker) handleReadyz(wr http.ResponseWriter, r *http.Request) {
	e := w.eng.Load()
	if e == nil {
		writeJSON(wr, http.StatusServiceUnavailable, WorkerReady{Ready: false, Reason: "index still loading"})
		return
	}
	writeJSON(wr, http.StatusOK, WorkerReady{
		Ready:  true,
		Docs:   e.NumDocs(),
		Shards: e.Segments().NumShards(),
		Epoch:  e.Epoch(),
		Dict:   e.Dictionary().Fingerprint,
	})
}

func (w *Worker) handleShardSearch(wr http.ResponseWriter, r *http.Request) {
	e := w.eng.Load()
	if e == nil {
		w.shed.Add(1)
		writeJSON(wr, http.StatusServiceUnavailable, errorBody{Error: "warming up: index still loading"})
		return
	}
	call := shardCalls.Get().(*shardCall)
	defer call.release() // after the response is written: the queries are cut from its string
	var err error
	if call.buf, err = readBounded(call.buf[:0], r.Body, maxShardRequestBytes); err == errTooLong {
		err = fmt.Errorf("longer than %d bytes", maxShardRequestBytes)
	}
	if err == nil {
		err = decodeRequest(call.buf, &call.req)
	}
	if err != nil {
		writeJSON(wr, http.StatusBadRequest, errorBody{Error: "invalid request body: " + err.Error()})
		return
	}
	// Deadline propagation: the router advertises the attempt's
	// remaining budget in X-Budget-Ms; work that cannot make the
	// deadline is stopped here rather than scored into a response
	// nobody will read. A budget expiry answers 504 so the router can
	// tell "the deadline ran out" (no breaker penalty) apart from "the
	// replica is sick" (500).
	ctx := r.Context()
	if h := r.Header.Get(HeaderBudgetMs); h != "" {
		if ms, perr := strconv.ParseInt(h, 10, 64); perr == nil && ms > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
			defer cancel()
		}
	}
	enc := encoderPool.Get().(*frameEncoder)
	defer encoderPool.Put(enc) // after the response is written: Write does not keep the buffer
	if err := encodeShard(ctx, enc, e, &call.req); err != nil {
		code := http.StatusInternalServerError
		switch {
		case r.Context().Err() != nil:
			code = 499 // client closed request; the scatter was aborted, not broken
		case ctx.Err() != nil:
			code = http.StatusGatewayTimeout // propagated budget ran out mid-search
			w.budgetExpired.Add(1)
		}
		writeJSON(wr, code, errorBody{Error: err.Error()})
		return
	}
	w.searches.Add(1)
	body := enc.finish()
	h := wr.Header()
	h["Content-Type"] = octetStream
	h["Content-Length"] = []string{strconv.Itoa(len(body))}
	wr.Write(body) // a failed write is the router's attempt failing; it retries
}

// encodeShard runs one shard search and encodes its answer: every hit
// goes from the retrieval walk into the frame, and only what the payload
// kind ships is computed — no window for none, no snippet text unless
// text is asked for.
func encodeShard(ctx context.Context, enc *frameEncoder, e *engine.Engine, req *ShardSearchRequest) error {
	kind := req.Payload
	sh, err := e.SearchShard(ctx, req.Shard, req.Queries, req.Ks)
	if err != nil {
		return err
	}
	defer sh.Close()
	enc.begin(kind, sh.Epoch, sh.Dict, len(req.Queries))
	for q := range req.Queries {
		enc.list(sh.Len(q))
		err := sh.Each(ctx, q, kind != PayloadNone, func(h *engine.ShardHit) {
			enc.hit(h.Doc, h.Score, h.DocID)
			switch kind {
			case PayloadTerms:
				enc.terms(h.Terms)
			case PayloadText:
				enc.text(h.Snippet())
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// octetStream is a frame's Content-Type, assigned rather than Set:
// net/http only reads it.
var octetStream = []string{"application/octet-stream"}

// shardCall is a worker's scratch for one shard search: the request
// frame's bytes and the request decoded from them, pooled and handed
// back once the response is written.
type shardCall struct {
	buf []byte
	req ShardSearchRequest
}

var shardCalls = sync.Pool{New: func() any { return new(shardCall) }}

func (c *shardCall) release() {
	clear(c.req.Queries) // they hold this request's string
	c.req.Queries = c.req.Queries[:0]
	shardCalls.Put(c)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
