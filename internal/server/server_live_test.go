package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro"
	"repro/internal/synth"
)

// The live-mutation endpoint tests build their OWN pipeline: the shared
// testPipe is read-only by contract, and these tests delete and ingest
// documents.
func newLiveServer(t *testing.T) (*Server, *httptest.Server, *repro.Pipeline) {
	t.Helper()
	p, err := repro.Build(repro.Config{
		Corpus: synth.CorpusSpec{
			Seed:                21,
			NumTopics:           4,
			MinSubtopics:        2,
			MaxSubtopics:        3,
			DocsPerSubtopic:     8,
			GenericDocsPerTopic: 4,
			NoiseDocs:           50,
			DocLength:           40,
			BackgroundVocab:     300,
			TopicVocab:          10,
			SubtopicVocab:       8,
		},
		Log:           synth.AOLLike(22, 1500),
		NumCandidates: 80,
		PerSpec:       10,
		K:             10,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(p.NewServeHandle(128, 4), Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, p
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding POST %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestServerDeleteInvalidatesCachedSearch drives satellite scenario 4 end
// to end over HTTP: a cached SERP from epoch N must not be served after a
// delete bumps the engine to N+1, and the deleted document must vanish
// from the response.
func TestServerDeleteInvalidatesCachedSearch(t *testing.T) {
	_, ts, p := newLiveServer(t)
	pastStore(t, p)
	q := p.Testbed.TopicQuery(1)

	var first SearchResponse
	if code := getJSON(t, searchURL(ts.URL, q, nil), &first); code != http.StatusOK {
		t.Fatalf("first search: status %d", code)
	}
	if first.CacheHit {
		t.Fatal("cold search reported cache_hit")
	}
	if len(first.Results) == 0 {
		t.Fatal("no results for a topic query")
	}
	var warm SearchResponse
	getJSON(t, searchURL(ts.URL, q, nil), &warm)
	if !warm.CacheHit {
		t.Fatal("repeat search did not hit the cache")
	}

	victim := first.Results[0].ID
	var mut MutationResponse
	if code := postJSON(t, ts.URL+"/delete", DeleteRequest{ID: victim}, &mut); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	if mut.Deleted == nil || !*mut.Deleted {
		t.Fatalf("delete of served doc %s reported %+v", victim, mut)
	}

	var after SearchResponse
	getJSON(t, searchURL(ts.URL, q, nil), &after)
	if after.CacheHit {
		t.Fatal("search after delete served the stale cached epoch")
	}
	for _, r := range after.Results {
		if r.ID == victim {
			t.Fatalf("deleted doc %s still in the SERP", victim)
		}
	}

	// Deleting a non-existent ID is a well-formed no-op, not an error.
	if code := postJSON(t, ts.URL+"/delete", DeleteRequest{ID: "no-such-doc"}, &mut); code != http.StatusOK {
		t.Fatalf("delete miss: status %d", code)
	}
	if mut.Deleted == nil || *mut.Deleted {
		t.Fatalf("delete miss reported %+v", mut)
	}
}

// TestServerMutationLifecycle walks ingest → flush → compact over HTTP and
// checks monotone epochs, the /stats live section, and the mutation
// counters.
func TestServerMutationLifecycle(t *testing.T) {
	_, ts, p := newLiveServer(t)

	var st0 StatsResponse
	getJSON(t, ts.URL+"/stats", &st0)
	if st0.Ingests != 0 || st0.Deletes != 0 {
		t.Fatalf("fresh server has mutation counters %d/%d", st0.Ingests, st0.Deletes)
	}
	docsBefore := p.Engine.NumDocs()

	var ing MutationResponse
	if code := postJSON(t, ts.URL+"/ingest", IngestRequest{ID: "live-1", Title: "live one", Body: "completely fresh streamed document"}, &ing); code != http.StatusOK {
		t.Fatalf("ingest: status %d", code)
	}
	if ing.Epoch == 0 {
		t.Fatal("ingest did not advance the epoch")
	}

	var fl MutationResponse
	if code := postJSON(t, ts.URL+"/flush", nil, &fl); code != http.StatusOK {
		t.Fatalf("flush: status %d", code)
	}
	if fl.Epoch <= ing.Epoch {
		t.Fatalf("flush epoch %d not after ingest epoch %d", fl.Epoch, ing.Epoch)
	}

	var cp MutationResponse
	if code := postJSON(t, ts.URL+"/compact", nil, &cp); code != http.StatusOK {
		t.Fatalf("compact: status %d", code)
	}
	if cp.Epoch <= fl.Epoch {
		t.Fatalf("compact epoch %d not after flush epoch %d", cp.Epoch, fl.Epoch)
	}

	// Malformed requests are rejected without touching the engine.
	if code := postJSON(t, ts.URL+"/ingest", IngestRequest{Title: "no id"}, nil); code != http.StatusBadRequest {
		t.Fatalf("ingest without id: status %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/delete", DeleteRequest{}, nil); code != http.StatusBadRequest {
		t.Fatalf("delete without id: status %d, want 400", code)
	}

	var st StatsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Ingests != 1 || st.Deletes != 0 {
		t.Errorf("ingests/deletes = %d/%d, want 1/0", st.Ingests, st.Deletes)
	}
	if st.Live.Epoch != cp.Epoch {
		t.Errorf("stats live epoch %d, want %d", st.Live.Epoch, cp.Epoch)
	}
	if st.Live.Segments != 1 || st.Live.MemDocs != 0 || st.Live.Tombstones != 0 {
		t.Errorf("not quiesced after compaction: %+v", st.Live)
	}
	if want := docsBefore + 1; st.Live.LiveDocs != want {
		t.Errorf("live docs = %d, want %d", st.Live.LiveDocs, want)
	}

	// The ingested document is actually searchable through the SERP path.
	var sr SearchResponse
	getJSON(t, searchURL(ts.URL, "completely fresh streamed document", nil), &sr)
	found := false
	for _, r := range sr.Results {
		if r.ID == "live-1" {
			found = true
		}
	}
	if !found {
		t.Error("ingested doc live-1 not retrievable via /search")
	}
}
