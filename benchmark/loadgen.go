package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// clients is the number of keep-alive connections, and of closed-loop
// clients: one per core of the reference box.
const clients = 2

// streamLen is how many requests a query stream holds; a phase that
// needs more starts over from the first.
const streamLen = 1 << 14

// reply is what the client saw of one request.
type reply struct {
	err       error   // transport error, non-200, undecodable body
	mismatch  bool    // the SERP differs from the oracle's
	latencyMs float64 // closed phase: from send; open phase: from the intended send time
	lateMs    float64 // open phase: how long after its due time the generator released the request
	tookMs    float64 // the handler's own took_us
	bytes     int
}

func (r reply) failed() bool { return r.err != nil || r.mismatch }

// fetch sends the request for distinct query i and checks the answer
// against the oracle, once there is one.
func (wd *world) fetch(i int) reply {
	began := time.Now()
	resp, err := wd.client.Get(wd.urls[i])
	if err != nil {
		return reply{err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{latencyMs: float64(time.Since(began)) / 1e6, bytes: len(body)}
	if err != nil {
		r.err = err
		return r
	}
	if resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("status %d: %s", resp.StatusCode, body)
		return r
	}
	var sr server.SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		r.err = err
		return r
	}
	r.tookMs = float64(sr.TookMicros) / 1e3
	if wd.want != nil {
		got := make([]string, len(sr.Results))
		for j, res := range sr.Results {
			got[j] = res.ID
		}
		r.mismatch = !slices.Equal(got, wd.want[i])
	}
	return r
}

// closedPhase runs `clients` clients for d, each sending its next request
// when the previous one is answered, and returns the replies and the
// time the phase took.
func (wd *world) closedPhase(stream []int, d time.Duration) ([]reply, time.Duration) {
	var next atomic.Int64
	perClient := make([][]reply, clients)
	began := time.Now()
	deadline := began.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				perClient[c] = append(perClient[c], wd.fetch(stream[i%len(stream)]))
			}
		}(c)
	}
	wg.Wait()
	return slices.Concat(perClient...), time.Since(began)
}

// openPhase releases request i at began + i/rate whether or not earlier
// ones were answered, and times each from that intended moment, so that
// the wait a stall imposes on later arrivals is counted. The requests
// still travel over the `clients` keep-alive connections: one that finds
// both busy waits in the client, and that wait is part of its latency.
// The replies come back in arrival order.
func (wd *world) openPhase(stream []int, rate float64, d time.Duration) []reply {
	n := int(rate * d.Seconds())
	replies := make([]reply, n)
	type released struct {
		i      int
		due    time.Time
		lateMs float64
	}
	// Sized to the number of sends, so the generator never waits for a
	// connection.
	queue := make(chan released, n)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rel := range queue {
				r := wd.fetch(stream[rel.i%len(stream)])
				r.latencyMs = float64(time.Since(rel.due)) / 1e6
				r.lateMs = rel.lateMs
				replies[rel.i] = r
			}
		}()
	}
	began := time.Now()
	for i := 0; i < n; i++ {
		due := began.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		queue <- released{i, due, float64(time.Since(due)) / 1e6}
	}
	close(queue)
	wg.Wait()
	return replies
}
