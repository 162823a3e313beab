package router

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
)

// wantHit is one hit as a test spells it out, with whichever payload the
// frame's kind carries.
type wantHit struct {
	doc   int32
	score float64
	id    string
	terms []int32
	text  string
}

func encodeFrame(kind Payload, epoch uint64, dict engine.DictFingerprint, lists [][]wantHit) []byte {
	var enc frameEncoder
	enc.begin(kind, epoch, dict, len(lists))
	for _, l := range lists {
		enc.list(len(l))
		for _, h := range l {
			enc.hit(h.doc, h.score, h.id)
			switch kind {
			case PayloadTerms:
				enc.terms(h.terms)
			case PayloadText:
				enc.text(h.text)
			}
		}
	}
	return append([]byte(nil), enc.finish()...)
}

// decoded reads every hit of a decoded frame back out the way the
// searcher does.
func decoded(f *frame, queries int) ([][]wantHit, error) {
	out := make([][]wantHit, queries)
	for q := range out {
		hits, refs := f.list(q)
		out[q] = make([]wantHit, len(hits))
		for j, h := range hits {
			w := wantHit{doc: h.Doc, score: h.Score, id: string(f.id(refs[j]))}
			switch f.kind {
			case PayloadTerms:
				terms, err := f.termsOf(refs[j], nil)
				if err != nil {
					return nil, err
				}
				w.terms = terms
			case PayloadText:
				w.text = f.snippetOf(refs[j])
			}
			out[q][j] = w
		}
	}
	return out, nil
}

// sameHits compares hit lists with scores by bit pattern: -0 and +0 are
// different answers, and NaN payloads must survive.
func sameHits(a, b [][]wantHit) bool {
	if len(a) != len(b) {
		return false
	}
	for q := range a {
		if len(a[q]) != len(b[q]) {
			return false
		}
		for j := range a[q] {
			x, y := a[q][j], b[q][j]
			if x.doc != y.doc || math.Float64bits(x.score) != math.Float64bits(y.score) || x.id != y.id ||
				x.text != y.text || len(x.terms) != len(y.terms) {
				return false
			}
			for i := range x.terms {
				if x.terms[i] != y.terms[i] {
					return false
				}
			}
		}
	}
	return true
}

func TestFrameRoundTrip(t *testing.T) {
	dict := engine.DictFingerprint{Terms: 1 << 30, Hash: 0xfeedfacecafebeef}
	scores := []float64{
		0, math.Copysign(0, -1), 1.5, -1.5,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, // subnormals
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
		math.MaxFloat64, math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8000000000123), // a NaN with a payload
		0.1 + 0.2,
	}
	var everyScore []wantHit
	for i, s := range scores {
		everyScore = append(everyScore, wantHit{doc: int32(i), score: s, id: "d", terms: []int32{int32(i)}, text: "t"})
	}
	cases := []struct {
		name  string
		lists [][]wantHit
	}{
		{"no queries", nil},
		{"one empty list", [][]wantHit{{}}},
		{"empty lists between full ones", [][]wantHit{{}, {{doc: 7, score: 2, id: "doc-7", terms: []int32{1, 1, 2}, text: "a b"}}, {}}},
		{"score bit patterns", [][]wantHit{everyScore}},
		{"varint widths", [][]wantHit{{
			{doc: 0, score: 1, id: "", terms: nil, text: ""},                                          // 1-byte doc, empty id, empty payload
			{doc: 127, score: 1, id: "x", terms: []int32{0}, text: "x"},                               // largest 1-byte varint
			{doc: 128, score: 1, id: "y", terms: []int32{127, 128, 128 + 16384}, text: "y"},           // 2- and 3-byte steps
			{doc: math.MaxInt32, score: 1, id: "z", terms: []int32{1 << 28, 1<<30 - 1}, text: "zz z"}, // 5-byte varints
			{doc: 5, score: 1, id: string(make([]byte, 300)), terms: make([]int32, 200), text: string(make([]byte, 20000))},
		}}},
	}
	for _, tc := range cases {
		for kind := PayloadNone; kind <= PayloadText; kind++ {
			t.Run(tc.name+"/"+kind.String(), func(t *testing.T) {
				want := make([][]wantHit, len(tc.lists))
				for q, l := range tc.lists { // what this kind ships of the case
					want[q] = make([]wantHit, len(l))
					for j, h := range l {
						w := wantHit{doc: h.doc, score: h.score, id: h.id}
						if kind == PayloadTerms {
							w.terms = h.terms
						}
						if kind == PayloadText {
							w.text = h.text
						}
						want[q][j] = w
					}
				}
				f := &frame{buf: encodeFrame(kind, 42, dict, tc.lists)}
				if err := f.decode(len(tc.lists)); err != nil {
					t.Fatal(err)
				}
				if f.kind != kind || f.epoch != 42 || f.dict != dict {
					t.Fatalf("header = %v/%d/%+v", f.kind, f.epoch, f.dict)
				}
				if got, err := decoded(f, len(tc.lists)); err != nil || !sameHits(got, want) {
					t.Fatalf("round trip (%v):\n got %+v\nwant %+v", err, got, want)
				}
				// The same frame decodes again into reused space.
				if err := f.decode(len(tc.lists)); err != nil {
					t.Fatal(err)
				}
				if got, err := decoded(f, len(tc.lists)); err != nil || !sameHits(got, want) {
					t.Fatalf("second decode into reused slices differs (%v)", err)
				}
			})
		}
	}
}

// TestFrameHostile: whatever a worker sends, decode answers with an
// error — no panic, no slice sized by a number the frame claims.
func TestFrameHostile(t *testing.T) {
	dict := engine.DictFingerprint{Terms: 100, Hash: 1}
	hit := wantHit{doc: 3, score: 1, id: "doc-3", terms: []int32{4, 4, 9, 99}, text: "some words"}
	good := map[Payload][]byte{}
	for kind := PayloadNone; kind <= PayloadText; kind++ {
		good[kind] = encodeFrame(kind, 1, dict, [][]wantHit{{hit, hit}, {hit}})
		if err := (&frame{buf: good[kind]}).decode(2); err != nil {
			t.Fatalf("%v: the intact frame: %v", kind, err)
		}
	}
	reject := func(name string, b []byte, queries int) {
		t.Helper()
		err := (&frame{buf: b}).decode(queries)
		if !errors.Is(err, errFrame) {
			t.Errorf("%s: err = %v, want a malformed-frame error", name, err)
		}
	}
	// fix rewrites the length field, so a case fails for its own reason.
	fix := func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[len(frameMagic):], uint32(len(b)-len(frameMagic)-4))
		return b
	}
	clone := func(kind Payload) []byte { return append([]byte(nil), good[kind]...) }

	for kind, b := range good {
		for n := 0; n < len(b); n++ {
			reject(kind.String()+" truncated", b[:n], 2)
			if n >= frameHeader {
				reject(kind.String()+" truncated, length fixed", fix(append([]byte(nil), b[:n]...)), 2)
			}
		}
		reject(kind.String()+" trailing byte", append(clone(kind), 0), 2)
		reject(kind.String()+" trailing byte, length fixed", fix(append(clone(kind), 0)), 2)
		reject(kind.String()+" wrong query count", b, 3)
	}
	b := clone(PayloadNone)
	b[0] = 'X'
	reject("bad magic", b, 2)
	b = clone(PayloadNone)
	b[3] = 2
	reject("unknown version", b, 2)
	b = clone(PayloadNone)
	b[frameHeader-1] = 3
	reject("unknown payload kind", b, 2)

	// Counts that claim more than the bytes left could hold.
	head := clone(PayloadNone)[:frameHeader]
	huge := binary.AppendUvarint(nil, 1<<40)
	reject("query count past the frame", fix(append(append([]byte(nil), head...), huge...)), 1<<40)
	reject("hit count past the frame", fix(append(append(append([]byte(nil), head...), 1), huge...)), 1)
	oneHit := append(append([]byte(nil), head...), 1, 1, 0) // 1 query, 1 hit, doc 0
	oneHit = append(oneHit, make([]byte, 8)...)             // score
	reject("id length past the frame", fix(append(append([]byte(nil), oneHit...), huge...)), 1)
	termsHead := append([]byte(nil), oneHit...)
	termsHead[frameHeader-1] = byte(PayloadTerms)
	termsHead = append(termsHead, 0) // empty id
	reject("term count past the frame", fix(append(append([]byte(nil), termsHead...), huge...)), 1)
	textHead := append([]byte(nil), termsHead...)
	textHead[frameHeader-1] = byte(PayloadText)
	reject("snippet length past the frame", fix(append(append([]byte(nil), textHead...), huge...)), 1)

	// Varints no encoder writes.
	over := bytes.Repeat([]byte{0xff}, 10)
	over = append(over, 0x7f) // eleven bytes: overflows 64 bits
	reject("oversized varint", fix(append(append([]byte(nil), head...), over...)), 1)
	reject("doc beyond int32", fix(append(append(append([]byte(nil), head...), 1, 1), binary.AppendUvarint(nil, 1<<31)...)), 1)

	// Term numbers the dictionary does not have, and steps that only an
	// unsorted bag or a wrapped sum could produce.
	terms := func(steps ...uint64) []byte {
		b := append([]byte(nil), termsHead...)
		b = binary.AppendUvarint(b, uint64(len(steps)))
		for _, s := range steps {
			b = binary.AppendUvarint(b, s)
		}
		return fix(b)
	}
	if err := (&frame{buf: terms(0, 99)}).decode(1); err != nil {
		t.Errorf("terms up to the last of the dictionary: %v", err)
	}
	reject("term = dictionary size", terms(100), 1)
	reject("terms stepping past the dictionary", terms(60, 40), 1)
	reject("step that wraps int32", terms(5, 1<<32-3), 1)
	reject("step that wraps uint64", terms(5, math.MaxUint64-2), 1)
}

// shardFrame posts one shard search to a worker handler and returns the
// response body.
func shardFrame(t testing.TB, h http.Handler, req ShardSearchRequest) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/shard/search", bytes.NewReader(req.frame())))
	if rec.Code != http.StatusOK {
		t.Fatalf("shard search %+v: %d %s", req, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// TestWorkerFrames: what a real worker writes, for every payload kind
// and for k <= 0 (all matches), decodes to exactly what its engine's
// shard walk yields.
func TestWorkerFrames(t *testing.T) {
	p := testPipeline(t)
	h := NewWorker(p.Engine).Handler()
	queries := []string{p.Testbed.TopicQuery(1), "noise query 0003", "zzz-no-such-term"}
	for _, ks := range [][]int{{10, 10, 10}, {0, -1, 0}} {
		matches := 0
		for shard := 0; shard < 2; shard++ {
			sh, err := p.Engine.SearchShard(context.Background(), shard, queries, ks)
			if err != nil {
				t.Fatal(err)
			}
			want := map[Payload][][]wantHit{}
			for q := range queries {
				var none, terms, text []wantHit
				sh.Each(context.Background(), q, true, func(h *engine.ShardHit) {
					head := wantHit{doc: h.Doc, score: h.Score, id: h.DocID}
					none = append(none, head)
					head.terms = append([]int32{}, h.Terms...)
					terms = append(terms, head)
					head.terms, head.text = nil, h.Snippet()
					text = append(text, head)
				})
				want[PayloadNone] = append(want[PayloadNone], none)
				want[PayloadTerms] = append(want[PayloadTerms], terms)
				want[PayloadText] = append(want[PayloadText], text)
			}
			sh.Close()
			matches += len(want[PayloadNone][0])
			for kind := PayloadNone; kind <= PayloadText; kind++ {
				f := &frame{buf: shardFrame(t, h, ShardSearchRequest{Shard: shard, Queries: queries, Ks: ks, Payload: kind})}
				if err := f.decode(len(queries)); err != nil {
					t.Fatalf("shard %d %v: %v", shard, kind, err)
				}
				if f.kind != kind || f.epoch != p.Engine.Epoch() || f.dict != p.Engine.Dictionary().Fingerprint {
					t.Fatalf("shard %d %v: header %v/%d/%+v", shard, kind, f.kind, f.epoch, f.dict)
				}
				if got, err := decoded(f, len(queries)); err != nil || !sameHits(got, want[kind]) {
					t.Fatalf("shard %d %v ks %v: frame differs from the shard walk (%v)", shard, kind, ks, err)
				}
			}
		}
		if ks[0] <= 0 && matches <= 20 {
			t.Fatalf("k <= 0 should keep every match of the topic query; the shards hold %d", matches)
		}
	}
}

// FuzzShardFrame: decode must return, with an error or a frame whose
// every hit reads back in bounds, for any bytes at all. Seeds are real
// worker frames of all three payload kinds.
func FuzzShardFrame(f *testing.F) {
	p := testPipeline(f)
	h := NewWorker(p.Engine).Handler()
	queries := []string{p.Testbed.TopicQuery(2), "noise query 0001"}
	for kind := PayloadNone; kind <= PayloadText; kind++ {
		for shard := 0; shard < 2; shard++ {
			f.Add(shardFrame(f, h, ShardSearchRequest{Shard: shard, Queries: queries, Ks: []int{5, 3}, Payload: kind}), 2)
		}
	}
	f.Add(encodeFrame(PayloadTerms, 0, engine.DictFingerprint{}, nil), 0)
	f.Fuzz(func(t *testing.T, data []byte, queries int) {
		if queries < 0 || queries > 64 {
			return
		}
		fr := &frame{buf: data}
		if err := fr.decode(queries); err != nil {
			if !errors.Is(err, errFrame) {
				t.Fatalf("decode error outside the frame vocabulary: %v", err)
			}
			return
		}
		if len(fr.ends) != queries {
			t.Fatalf("%d lists decoded for %d queries", len(fr.ends), queries)
		}
		var terms []int32
		for q := 0; q < queries; q++ {
			hits, refs := fr.list(q)
			if len(hits) != len(refs) {
				t.Fatal("hits and refs out of step")
			}
			for _, ref := range refs {
				_ = fr.id(ref)
				switch fr.kind {
				case PayloadTerms:
					var err error
					if terms, err = fr.termsOf(ref, terms); err != nil {
						t.Fatalf("terms of an accepted hit: %v", err)
					}
					for i, tm := range terms {
						if tm < 0 || uint32(tm) >= fr.dict.Terms || (i > 0 && tm < terms[i-1]) {
							t.Fatalf("accepted terms %v against a dictionary of %d", terms, fr.dict.Terms)
						}
					}
				case PayloadText:
					_ = fr.snippetOf(ref)
				}
			}
		}
		// What decode accepts, the encoder reproduces byte for byte —
		// unless the input spelled a varint the long way.
		lists, err := decoded(fr, queries)
		if err != nil {
			t.Fatal(err)
		}
		if again := encodeFrame(fr.kind, fr.epoch, fr.dict, lists); len(again) == len(data) && !bytes.Equal(again, data) {
			t.Fatalf("re-encoding an accepted frame of the same length changed it")
		}
	})
}

// TestVectorSurfacesFrameError: the per-candidate vector reads a winner's
// term payload out of the frame at the moment it is asked for, long after
// decode checked it — so bytes that went bad in between (a pooled frame
// handed back too early is how) must come out of Scored.Vector as an
// error for that candidate, and stop a pass over every candidate, never
// as a wrong vector or a panic, and leave every other candidate's vector
// alone.
func TestVectorSurfacesFrameError(t *testing.T) {
	dict := testPipeline(t).Engine.Dictionary()
	hits := []wantHit{
		{doc: 3, score: 2, id: "doc-3", terms: []int32{1, 1, 4}},
		{doc: 9, score: 1, id: "doc-9", terms: []int32{0, 2}},
	}
	f := &frame{buf: encodeFrame(PayloadTerms, 1, dict.Fingerprint, [][]wantHit{hits})}
	if err := f.decode(1); err != nil {
		t.Fatal(err)
	}
	sc, err := (&gathered{shards: []shardAnswer{{f: f}}}).scored(dict, []int{10}, true)
	if err != nil {
		t.Fatal(err)
	}
	for j, h := range hits {
		got, err := sc.Vector(0, j, nil)
		if err != nil || !reflect.DeepEqual(got, dict.Vector(h.terms, nil)) {
			t.Fatalf("candidate %d: vector %+v, err %v; want Dictionary.Vector of its terms", j, got, err)
		}
	}

	_, refs := f.list(0)
	f.buf[refs[1].pay] = 0x7f // hit 1 now claims 127 terms in a 3-byte payload
	if _, err := sc.Vector(0, 1, nil); err == nil || !strings.Contains(err.Error(), "terms claimed") {
		t.Fatalf("Vector over a corrupted payload: err = %v, want the frame reader's", err)
	}
	if got, err := sc.Vector(0, 0, nil); err != nil || !reflect.DeepEqual(got, dict.Vector(hits[0].terms, nil)) {
		t.Fatalf("the sound candidate beside it: vector %+v, err %v", got, err)
	}
	if _, err := vectorsOf(sc); err == nil || !strings.Contains(err.Error(), "terms claimed") {
		t.Fatalf("every vector over a corrupted payload: err = %v, want the frame reader's", err)
	}
	sc.Close()
	if _, err := sc.Vector(0, 0, nil); err == nil {
		t.Fatal("Vector after Close read a frame that was handed back")
	}
}

// requestCases are request frames a router can send: zero and negative
// ks, empty queries, bytes that are not UTF-8, and the largest batch a
// worker takes.
func requestCases() []ShardSearchRequest {
	batch := ShardSearchRequest{Shard: 1, Payload: PayloadTerms}
	for i := 0; i < maxShardQueries; i++ {
		batch.Queries = append(batch.Queries, strings.Repeat("q", i%5))
		batch.Ks = append(batch.Ks, i-maxShardQueries/2)
	}
	return []ShardSearchRequest{
		{Shard: 0, Queries: []string{}, Ks: []int{}},
		{Shard: 0, Queries: []string{"topic01"}, Ks: []int{10}},
		{Shard: 3, Queries: []string{"", "x", ""}, Ks: []int{0, -1, 0}, Payload: PayloadText},
		{Shard: 1 << 20, Queries: []string{"\xff\xfe\x00bad", "caf\xc3"}, Ks: []int{math.MaxInt64, math.MinInt64}, Payload: PayloadTerms},
		batch,
	}
}

// TestShardRequestRoundTrip: what the router encodes, the worker decodes
// to the same request, into a frame exactly as long as size says; one
// query more than a worker takes is refused.
func TestShardRequestRoundTrip(t *testing.T) {
	var got ShardSearchRequest // reused, as a worker's pooled scratch is
	for _, req := range requestCases() {
		b := req.frame()
		if len(b) != req.size() || cap(b) != len(b) {
			t.Fatalf("frame of %d queries: len %d cap %d, size %d", len(req.Queries), len(b), cap(b), req.size())
		}
		if err := decodeRequest(b, &got); err != nil {
			t.Fatalf("%d queries: %v", len(req.Queries), err)
		}
		if got.Shard != req.Shard || got.Payload != req.Payload || !slices.Equal(got.Queries, req.Queries) || !slices.Equal(got.Ks, req.Ks) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, req)
		}
	}
	over := requestCases()[4]
	over.Queries, over.Ks = append(over.Queries, "one more"), append(over.Ks, 1)
	if err := decodeRequest(over.frame(), &got); err == nil || !strings.Contains(err.Error(), "at most 256") {
		t.Fatalf("%d queries: err = %v, want refused", len(over.Queries), err)
	}
}

// requestOf cuts any bytes into a request: queries split at 0xff, each
// k the byte after the split as a signed number, so zero, negative and
// empty all occur.
func requestOf(data []byte) ShardSearchRequest {
	req := ShardSearchRequest{Shard: len(data) % 7, Payload: Payload(len(data) % 3)}
	for i, part := range bytes.Split(data, []byte{0xff}) {
		k := 0
		if len(part) > 0 {
			k = int(int8(part[0])) * (i + 1)
		}
		req.Queries = append(req.Queries, string(part))
		req.Ks = append(req.Ks, k)
	}
	return req
}

// appendedCap is the capacity a nil slice reaches after n single appends.
func appendedCap[T any](n int) int {
	var s []T
	for range n {
		s = append(s, *new(T))
	}
	return cap(s)
}

// FuzzShardRequest: decodeRequest answers any bytes with a request or an
// error of its own vocabulary, never a panic; its slices grow by queries
// decoded, not by a count the frame claims; a frame it accepts re-encodes
// to itself (unless a varint was spelled the long way) and is refused
// with one byte more. And any bytes, cut into queries, round-trip.
func FuzzShardRequest(f *testing.F) {
	for _, req := range requestCases() {
		f.Add(req.frame())
	}
	f.Add([]byte(`{"shard":0,"queries":["x"],"ks":[5]}`))
	f.Add([]byte(requestMagic + "\x05\x00\x00\x00\x00\x00\xff\xff\x03"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req ShardSearchRequest
		err := decodeRequest(data, &req)
		if cap(req.Queries) != appendedCap[string](len(req.Queries)) || cap(req.Ks) != appendedCap[int](len(req.Ks)) {
			t.Fatalf("%d queries decoded into room for %d", len(req.Queries), cap(req.Queries))
		}
		if err != nil {
			if !errors.Is(err, errRequest) {
				t.Fatalf("decode error outside the request vocabulary: %v", err)
			}
		} else {
			if again := req.frame(); len(again) == len(data) && !bytes.Equal(again, data) {
				t.Fatalf("re-encoding an accepted request of the same length changed it")
			}
			longer := append(slices.Clone(data), 0)
			binary.LittleEndian.PutUint32(longer[len(requestMagic):], uint32(len(longer)-requestHeader))
			if err := decodeRequest(longer, &ShardSearchRequest{}); err == nil || !strings.Contains(err.Error(), "trailing") {
				t.Fatalf("an accepted request with a byte more: err = %v, want trailing bytes refused", err)
			}
		}

		want := requestOf(data)
		err = decodeRequest(want.frame(), &req)
		if len(want.Queries) > maxShardQueries {
			if err == nil {
				t.Fatalf("%d queries accepted", len(want.Queries))
			}
			return
		}
		if err != nil || req.Shard != want.Shard || req.Payload != want.Payload || !slices.Equal(req.Queries, want.Queries) || !slices.Equal(req.Ks, want.Ks) {
			t.Fatalf("round trip (%v):\n got %+v\nwant %+v", err, req, want)
		}
	})
}
