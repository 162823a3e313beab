// Command loadgen is the load-generation client of the serving benchmark:
// it fetches the server's known queries (/queries, popularity-ordered),
// replays a Zipf-skewed sample of them — the head-heavy traffic shape of
// real query logs (Appendix B) — through concurrent connections, and
// reports client-observed throughput and latency percentiles together
// with the server's cache and worker-pool counters.
//
// With -ingest N it additionally drives the live-index mutation
// endpoints from one background writer while the search workers run:
// ingests (some of them updates), deletes of previously ingested
// documents, and periodic flushes and compactions — the end-to-end check
// that searches keep succeeding across epoch swaps.
//
// Failed requests are tallied by error class — connection refused,
// connection errors, client-side timeouts, 503 sheds, other 5xx/4xx,
// body decode failures — so a failover experiment can tell "the router
// shed load" apart from "the router was down". With -fail-on-error the
// exit status is nonzero if ANY search request failed, which is what
// the CI failover gate runs: kill a replica mid-run, require zero
// failed requests.
//
// Tail-tolerance probes: -budget stamps every request with an
// X-Search-Budget deadline header, and hedged / degraded responses are
// counted as their own result classes. Degraded responses (partial
// candidate set) count as failures — and trip -fail-on-error — unless
// -allow-degraded says the run expects them.
//
//	loadgen                                  # 2000 queries, 8 connections
//	loadgen -n 10000 -c 32 -zipf 1.2
//	loadgen -addr http://localhost:9090 -alg xquad -k 20
//	loadgen -ingest 200                      # mutate the live index mid-run
//	loadgen -fail-on-error                   # exit 1 unless every request succeeded
//	loadgen -json point.json -name QPSScale/workers=2   # machine-readable summary
//
// -json writes the client-observed QPS and latency percentiles as one
// benchmark point in the shape of a BENCH_<date>.json entry;
// scripts/failover.sh reads its p99 from there.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/synth"
)

func main() {
	addr := flag.String("addr", "http://localhost:8080", "base URL of a running serve instance")
	n := flag.Int("n", 2000, "total queries to replay")
	c := flag.Int("c", 8, "concurrent connections")
	zipfS := flag.Float64("zipf", 1.0, "Zipf exponent over the popularity-ordered query list")
	seed := flag.Int64("seed", 1, "sampling seed")
	alg := flag.String("alg", "", "algorithm override (empty = server default)")
	k := flag.Int("k", 0, "per-request k override (0 = server default)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request timeout")
	budget := flag.Duration("budget", 0, "per-request X-Search-Budget deadline header sent with every search (0 = none)")
	allowDegraded := flag.Bool("allow-degraded", false, "count degraded (partial-result) responses as successes; without this they are failures and trip -fail-on-error")
	ingestN := flag.Int("ingest", 0, "live-index mutations to interleave with the search load (ingests with periodic updates, deletes, flushes and compactions; 0 = read-only run)")
	failOnError := flag.Bool("fail-on-error", false, "exit nonzero if any search request fails (the failover gate: chaos runs must lose zero requests)")
	jsonOut := flag.String("json", "", "also write the run summary to this file as one benchmark point (the shape of a BENCH_<date>.json entry)")
	pointName := flag.String("name", "Loadgen", "point name recorded with -json")
	flag.Parse()
	if err := checkLoad(*n, *c); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		flag.Usage()
		os.Exit(2)
	}

	client := &http.Client{
		Timeout: *timeout,
		Transport: &http.Transport{
			MaxIdleConns:        *c,
			MaxIdleConnsPerHost: *c,
		},
	}

	queries, err := fetchQueries(client, *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	if len(queries) == 0 {
		fmt.Fprintln(os.Stderr, "loadgen: server returned no queries")
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "replaying %d queries over %d known (zipf s=%.2f, %d connections)\n",
		*n, len(queries), *zipfS, *c)

	// Pre-sample the whole workload so the generators add no latency noise.
	zipf := synth.NewZipf(len(queries), *zipfS)
	rng := rand.New(rand.NewSource(*seed))
	work := make([]string, *n)
	for i := range work {
		work[i] = queries[zipf.Sample(rng)]
	}

	type result struct {
		latency  time.Duration
		hit      bool
		diverse  bool
		degraded bool
		hedged   bool
		class    string // empty = success; otherwise the error class
	}
	jobs := make(chan string)
	results := make(chan result, *n)
	for w := 0; w < *c; w++ {
		go func() {
			for q := range jobs {
				v := url.Values{"q": {q}}
				if *alg != "" {
					v.Set("alg", *alg)
				}
				if *k > 0 {
					v.Set("k", fmt.Sprint(*k))
				}
				began := time.Now()
				var sr server.SearchResponse
				code, hdr, err := getJSONBudget(client, *addr+"/search?"+v.Encode(), *budget, &sr)
				results <- result{
					latency:  time.Since(began),
					hit:      sr.CacheHit,
					diverse:  sr.Ambiguous,
					degraded: sr.Degraded,
					hedged:   hdr.Get(server.HeaderHedged) == "true",
					class:    classify(code, err),
				}
			}
		}()
	}

	wallStart := time.Now()
	go func() {
		for _, q := range work {
			jobs <- q
		}
		close(jobs)
	}()

	// The mutation writer runs beside the search workers: a deterministic
	// mix of ingests (every 4th one an update of an earlier doc), deletes
	// (every 7th op), and a flush/compact every 25th — so the search load
	// above crosses memtable growth, segment seals, and epoch swaps.
	mutDone := make(chan [2]int, 1)
	if *ingestN > 0 {
		go func() {
			mrng := rand.New(rand.NewSource(*seed + 42))
			ok, failed := 0, 0
			post := func(path string, body any) bool {
				var buf bytes.Buffer
				if body != nil {
					json.NewEncoder(&buf).Encode(body)
				}
				resp, err := client.Post(*addr+path, "application/json", &buf)
				if err != nil {
					return false
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				return resp.StatusCode == http.StatusOK
			}
			for i := 0; i < *ingestN; i++ {
				var succeeded bool
				switch {
				case i%25 == 24 && i%2 == 0:
					succeeded = post("/flush", nil)
				case i%25 == 24:
					succeeded = post("/compact", nil)
				case i%7 == 6 && i > 0:
					id := fmt.Sprintf("loadgen-%d", mrng.Intn(i))
					succeeded = post("/delete", map[string]string{"id": id})
				default:
					id := fmt.Sprintf("loadgen-%d", i)
					if i%4 == 3 && i > 4 {
						id = fmt.Sprintf("loadgen-%d", mrng.Intn(i)) // update
					}
					succeeded = post("/ingest", map[string]string{
						"id":    id,
						"title": fmt.Sprintf("live document %d", i),
						"body":  synth.NoiseQuery(i) + " streamed content revision",
					})
				}
				if succeeded {
					ok++
				} else {
					failed++
				}
			}
			mutDone <- [2]int{ok, failed}
		}()
	} else {
		mutDone <- [2]int{}
	}

	latencies := make([]time.Duration, 0, *n)
	okCount, hitCount, diverseCount := 0, 0, 0
	degradedCount, hedgedCount := 0, 0
	errClasses := map[string]int{}
	for i := 0; i < *n; i++ {
		r := <-results
		if r.class != "" {
			errClasses[r.class]++
			continue
		}
		if r.hedged {
			hedgedCount++ // latency salvage, not an error: always a success
		}
		if r.degraded {
			degradedCount++
			if !*allowDegraded {
				// A partial SERP the run did not opt into is a failure
				// (and trips -fail-on-error), even though it came back 200.
				errClasses["degraded"]++
				continue
			}
		}
		okCount++
		latencies = append(latencies, r.latency)
		if r.hit {
			hitCount++
		}
		if r.diverse {
			diverseCount++
		}
	}
	mut := <-mutDone
	wall := time.Since(wallStart)

	if okCount == 0 {
		fmt.Fprintln(os.Stderr, "loadgen: every request failed; is serve running at", *addr, "?")
		os.Exit(1)
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })

	fmt.Printf("requests      %d ok, %d failed\n", okCount, *n-okCount)
	if len(errClasses) > 0 {
		classes := make([]string, 0, len(errClasses))
		for cl := range errClasses {
			classes = append(classes, cl)
		}
		sort.Strings(classes)
		fmt.Printf("errors       ")
		for _, cl := range classes {
			fmt.Printf(" %s=%d", cl, errClasses[cl])
		}
		fmt.Println()
	}
	fmt.Printf("wall clock    %v\n", wall.Round(time.Millisecond))
	fmt.Printf("throughput    %.1f qps\n", float64(okCount)/wall.Seconds())
	fmt.Printf("latency p50   %v\n", percentile(latencies, 0.50).Round(time.Microsecond))
	fmt.Printf("latency p90   %v\n", percentile(latencies, 0.90).Round(time.Microsecond))
	fmt.Printf("latency p95   %v\n", percentile(latencies, 0.95).Round(time.Microsecond))
	fmt.Printf("latency p99   %v\n", percentile(latencies, 0.99).Round(time.Microsecond))
	fmt.Printf("latency max   %v\n", latencies[len(latencies)-1].Round(time.Microsecond))
	fmt.Printf("cache hits    %d/%d (%.1f%% client-observed)\n", hitCount, okCount, 100*float64(hitCount)/float64(okCount))
	fmt.Printf("diversified   %d/%d ambiguous SERPs\n", diverseCount, okCount)
	if hedgedCount > 0 || degradedCount > 0 || *budget > 0 {
		fmt.Printf("hedged        %d responses\n", hedgedCount)
		fmt.Printf("degraded      %d responses (allowed=%v)\n", degradedCount, *allowDegraded)
	}
	if *ingestN > 0 {
		fmt.Printf("mutations     %d ok, %d failed\n", mut[0], mut[1])
	}

	var st server.StatsResponse
	if code, err := getJSON(client, *addr+"/stats", &st); err == nil && code == http.StatusOK {
		fmt.Printf("server        %d searches, %d rejected, avg %.2fms in-worker\n",
			st.Searches, st.Rejected, st.AvgLatencyMsec)
		fmt.Printf("server cache  %.1f%% hit rate (%d hits / %d misses, %d evictions, %d/%d entries)\n",
			100*st.Cache.HitRate, st.Cache.Hits, st.Cache.Misses, st.Cache.Evictions, st.Cache.Entries, st.Cache.Capacity)
		fmt.Printf("server live   epoch %d, %d segments, %d mem docs, %d tombstones, %d live docs (%d flushes, %d compactions)\n",
			st.Live.Epoch, st.Live.Segments, st.Live.MemDocs, st.Live.Tombstones, st.Live.LiveDocs, st.Live.Flushes, st.Live.Compactions)
	}

	if *jsonOut != "" {
		// One point in the shape cmd/bench snapshots use.
		point := struct {
			Name       string             `json:"name"`
			Gomaxprocs int                `json:"gomaxprocs"`
			Iters      int64              `json:"iters"`
			Metrics    map[string]float64 `json:"metrics"`
		}{
			Name:       *pointName,
			Gomaxprocs: runtime.GOMAXPROCS(0),
			Iters:      int64(okCount),
			Metrics: map[string]float64{
				"qps":      float64(okCount) / wall.Seconds(),
				"p50_ms":   float64(percentile(latencies, 0.50).Microseconds()) / 1e3,
				"p90_ms":   float64(percentile(latencies, 0.90).Microseconds()) / 1e3,
				"p95_ms":   float64(percentile(latencies, 0.95).Microseconds()) / 1e3,
				"p99_ms":   float64(percentile(latencies, 0.99).Microseconds()) / 1e3,
				"max_ms":   float64(latencies[len(latencies)-1].Microseconds()) / 1e3,
				"failed":   float64(*n - okCount),
				"hedged":   float64(hedgedCount),
				"degraded": float64(degradedCount),
			},
		}
		buf, err := json.MarshalIndent(point, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
	}

	if *failOnError && okCount < *n {
		fmt.Fprintf(os.Stderr, "loadgen: FAIL: %d of %d requests failed\n", *n-okCount, *n)
		os.Exit(1)
	}
}

// checkLoad rejects a run that could not finish: without a connection
// nothing drains the queue of queries, and a negative count has no
// queries to sample.
func checkLoad(n, c int) error {
	if c < 1 {
		return fmt.Errorf("-c %d: need at least one connection", c)
	}
	if n < 1 {
		return fmt.Errorf("-n %d: need at least one query", n)
	}
	return nil
}

// classify buckets a request outcome into an error class; the empty
// string means success. Transport failures are split by cause so a
// failover run can distinguish a dead endpoint (conn_refused), a
// black-holed one (timeout), and torn connections (conn); HTTP
// failures by status family, with 503 separated out because the server
// uses it for deliberate shedding.
func classify(code int, err error) string {
	switch {
	case err == nil && code == http.StatusOK:
		return ""
	case err != nil && code != 0:
		// The status line arrived but the body did not decode.
		return "decode"
	case err != nil:
		var ne net.Error
		switch {
		case errors.Is(err, syscall.ECONNREFUSED):
			return "conn_refused"
		case errors.As(err, &ne) && ne.Timeout():
			return "timeout"
		default:
			return "conn"
		}
	case code == http.StatusServiceUnavailable:
		return "http_503_shed"
	case code >= 500:
		return "http_5xx"
	case code >= 400:
		return "http_4xx"
	default:
		return fmt.Sprintf("http_%d", code)
	}
}

func fetchQueries(client *http.Client, addr string) ([]string, error) {
	var qr server.QueriesResponse
	code, err := getJSON(client, addr+"/queries", &qr)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /queries: status %d", code)
	}
	return qr.Queries, nil
}

func getJSON(client *http.Client, url string, out any) (int, error) {
	code, _, err := getJSONBudget(client, url, 0, out)
	return code, err
}

// getJSONBudget is getJSON with an optional X-Search-Budget deadline
// header (0 sends none). It also returns the response headers: hedging
// is reported out-of-band via X-Hedged so response bodies stay
// byte-identical to a single-process server's.
func getJSONBudget(client *http.Client, url string, budget time.Duration, out any) (int, http.Header, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	if budget > 0 {
		req.Header.Set(server.HeaderSearchBudget, budget.String())
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(out)
	// Drain to EOF so the keep-alive connection returns to the idle pool;
	// closing a non-empty body tears the connection down and would make
	// every benchmarked request pay TCP setup.
	io.Copy(io.Discard, resp.Body)
	if err != nil {
		return resp.StatusCode, resp.Header, err
	}
	return resp.StatusCode, resp.Header, nil
}

// percentile returns the q-quantile by nearest-rank on a sorted slice.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
