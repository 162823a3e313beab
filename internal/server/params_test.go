package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// referenceSearchParams is the /search parameter handling that
// parseSearchParams replaced — url.ParseQuery, Values.Get and the
// handler's checks in their order — kept as the oracle. A request that
// passes every check comes back with code 0 and the q, k and alg it
// searches for; any other with the status and error message the handler
// must answer.
func referenceSearchParams(raw, budget string, cfg Config, defaultK int) (code int, msg, q string, k int, alg core.Algorithm) {
	v, _ := url.ParseQuery(raw)
	q = v.Get("q")
	if q == "" {
		return http.StatusBadRequest, "missing required parameter q", "", 0, ""
	}
	k = defaultK
	if raw := v.Get("k"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			return http.StatusBadRequest, "k must be a positive integer", "", 0, ""
		}
		k = min(n, cfg.MaxK)
	}
	alg = cfg.DefaultAlg
	if raw := v.Get("alg"); raw != "" {
		alg = core.Algorithm(raw)
		if !alg.Valid() {
			return http.StatusBadRequest, fmt.Sprintf("unknown alg %q (valid: %v)", raw, core.Algorithms), "", 0, ""
		}
	}
	if budget != "" {
		if d, err := time.ParseDuration(budget); err != nil || d <= 0 {
			return http.StatusBadRequest, "invalid " + HeaderSearchBudget + " (want a positive Go duration, e.g. 250ms)", "", 0, ""
		}
	}
	return 0, "", q, k, alg
}

// jsonText is s as the handler's encoder writes it.
func jsonText(s string) string {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.Encode(s)
	return strings.TrimSuffix(b.String(), "\n")
}

// FuzzSearchParams: for any raw query string and X-Search-Budget value,
// the one-pass parser reads the q, k and alg url.ParseQuery reads, and
// the handler answers with the reference's status and error message or
// searches for the reference's (q, k, alg). A request that passes every
// check may still be shed with 503 when it brought a budget, which can
// run out before the search does.
func FuzzSearchParams(f *testing.F) {
	for _, seed := range []struct{ raw, budget string }{
		{"q=topic01", ""},
		{"q=topic01&k=5&alg=xquad", "250ms"},
		{"q=a&q=b&k=3&k=4&alg=mmr&alg=nope", ""},
		{"q=&q=topic01", ""},
		{"k=5", ""},
		{"q=x;y&q=topic02", ""},
		{"q=x&k=5;6&k=7", ""},
		{"q=%zz&q=topic03", ""},
		{"q=noise+query+0001&k=%zz&k=2", ""},
		{"%71=topic04&%6B=2&al%67=iaselect", ""},
		{"q=topic01&k=", ""},
		{"q=topic01&k=+5", ""},
		{"q=topic01&k=%2B5", ""},
		{"q=topic01&k=%205", ""},
		{"q=topic01&k=0", ""},
		{"q=topic01&k=-3", ""},
		{"q=topic01&k=99999999999999999999999", ""},
		{"q=topic01&k=100000", ""},
		{"q=topic01&alg=", ""},
		{"q=topic01&alg=opt%73elect", ""},
		{"q=topic01&&&k=2&", ""},
		{"q=%E2%9C%93&k=1", ""},
		{"q=%ff%fe", ""},
		{"q==&k==", ""},
		{"q=topic01", "0s"},
		{"q=topic01", "-1s"},
		{"q=topic01", "soon"},
		{"q=topic01", "1ns"},
	} {
		f.Add(seed.raw, seed.budget)
	}
	srv, _ := newTestServer(f, Config{})
	h := srv.Handler()
	defaultK := testPipeline(f).Config.K
	f.Fuzz(func(t *testing.T, raw, budget string) {
		ref, _ := url.ParseQuery(raw)
		got := parseSearchParams(raw)
		for _, key := range []struct {
			name string
			got  string
			has  bool
		}{{"q", got.q, got.hasQ}, {"k", got.k, got.hasK}, {"alg", got.alg, got.hasAlg}} {
			if want, has := ref.Get(key.name), ref.Has(key.name); key.got != want || key.has != has {
				t.Fatalf("%q: %s = %q (present %v); url.ParseQuery reads %q (present %v)", raw, key.name, key.got, key.has, want, has)
			}
		}

		code, msg, q, k, alg := referenceSearchParams(raw, budget, srv.cfg, defaultK)
		req := httptest.NewRequest(http.MethodGet, "/search", nil)
		req.URL.RawQuery = raw
		if budget != "" {
			req.Header.Set(HeaderSearchBudget, budget)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if code != 0 {
			var body struct{ Error string }
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != code || body.Error != msg {
				t.Fatalf("q=%q budget %q: %d %s; want %d %q", raw, budget, rec.Code, rec.Body, code, msg)
			}
			return
		}
		if rec.Code == http.StatusServiceUnavailable && budget != "" {
			return // the budget ran out first
		}
		want := fmt.Sprintf(`{"query":%s,"normalized_query":`, jsonText(q))
		wantMid := fmt.Sprintf(`"algorithm":%s,"k":%d,`, jsonText(string(alg)), k)
		if body := rec.Body.String(); rec.Code != http.StatusOK || !strings.HasPrefix(body, want) || !strings.Contains(body, wantMid) {
			t.Fatalf("%q budget %q: %d %s; want 200 searching %q, k %d, %s", raw, budget, rec.Code, body, q, k, alg)
		}
	})
}
