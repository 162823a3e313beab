package router

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync"

	"repro/internal/engine"
	"repro/internal/ranking"
)

// The shard frame is the body of a 200 answer to POST /shard/search: one
// length-prefixed binary message, little-endian where fixed-width.
//
//	"RSF" 0x01        magic, version
//	uint32            bytes that follow this field
//	uint64            snapshot epoch
//	uint32, uint64    dictionary fingerprint: term count, hash
//	byte              payload kind (Payload)
//	uvarint           number of queries, then per query:
//	  uvarint         number of hits, then per hit:
//	    uvarint       doc    global internal document number
//	    8 bytes       score  float64 bits, so every bit pattern survives
//	    uvarint+bytes id     external document ID
//	    payload       none:  nothing
//	                  terms: uvarint n, then n uvarints — the snippet
//	                         window's sorted term numbers, the first as
//	                         is, the rest as the step from the one before
//	                         (0 for a repeated term)
//	                  text:  uvarint+bytes, the snippet
//
// The worker writes it straight out of the retrieval walk into a pooled
// buffer; the router reads it into a pooled buffer and decodes hit
// headers in place — IDs, term numbers and snippets stay bytes in that
// buffer until a merged winner needs them.

// Payload says what a shard ships with every hit beyond its header.
type Payload uint8

const (
	// PayloadNone: headers only. What a request needs when no surrogate
	// vector will be read — the query is known to be unambiguous.
	PayloadNone Payload = iota
	// PayloadTerms: the snippet window as base-dictionary term numbers,
	// which the router counts into the surrogate vector of the merged
	// winners. Requires worker and router to agree on the dictionary; the
	// fingerprint in the frame is how the router knows.
	PayloadTerms
	// PayloadText: the snippet itself, for Searcher.SearchBatch.
	PayloadText
)

// payloadNames names each Payload, for messages and test names.
var payloadNames = [...]string{"none", "terms", "text"}

func (p Payload) String() string { return payloadNames[p] }

const (
	frameMagic  = "RSF\x01"
	frameHeader = len(frameMagic) + 4 + 8 + 4 + 8 + 1
	// maxFrameBytes bounds what a router reads of one answer.
	maxFrameBytes = 64 << 20
	// minHitBytes is the smallest encoding of a hit (doc, score, empty
	// id, no payload): the bound a hit count is checked against.
	minHitBytes = 1 + 8 + 1
)

var errFrame = errors.New("malformed shard frame")

func frameErr(format string, a ...any) error {
	return fmt.Errorf("%w: %s", errFrame, fmt.Sprintf(format, a...))
}

// frameEncoder appends one frame to buf. Calls go begin, then per query
// list and per hit hit followed by terms or text as the kind demands,
// then finish.
type frameEncoder struct{ buf []byte }

var encoderPool = sync.Pool{New: func() any { return new(frameEncoder) }}

func (e *frameEncoder) begin(kind Payload, epoch uint64, dict engine.DictFingerprint, queries int) {
	e.buf = append(e.buf[:0], frameMagic...)
	e.buf = append(e.buf, 0, 0, 0, 0) // length, set by finish
	e.buf = binary.LittleEndian.AppendUint64(e.buf, epoch)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, dict.Terms)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, dict.Hash)
	e.buf = append(e.buf, byte(kind))
	e.buf = binary.AppendUvarint(e.buf, uint64(queries))
}

func (e *frameEncoder) list(hits int) { e.buf = binary.AppendUvarint(e.buf, uint64(hits)) }

func (e *frameEncoder) hit(doc int32, score float64, id string) {
	e.buf = binary.AppendUvarint(e.buf, uint64(uint32(doc)))
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(score))
	e.text(id)
}

// terms appends a sorted bag of term numbers.
func (e *frameEncoder) terms(ts []int32) {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(ts)))
	prev := int32(0)
	for _, t := range ts {
		e.buf = binary.AppendUvarint(e.buf, uint64(t-prev))
		prev = t
	}
}

func (e *frameEncoder) text(s string) {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// finish fills in the length and returns the frame; it is valid until
// the encoder is used again.
func (e *frameEncoder) finish() []byte {
	binary.LittleEndian.PutUint32(e.buf[len(frameMagic):], uint32(len(e.buf)-len(frameMagic)-4))
	return e.buf
}

// hitRef locates one decoded hit's variable-length parts in the frame's
// buffer: the ID is buf[id:pay], the payload buf[pay:end].
type hitRef struct{ id, pay, end uint32 }

// frame is one decoded shard answer. The hit lists carry Doc and Score
// only — what the merge reads; refs says where the rest of each hit sits
// in buf. A frame and everything sliced from it belongs to whoever holds
// it until release.
type frame struct {
	buf   []byte
	kind  Payload
	epoch uint64
	dict  engine.DictFingerprint

	hits []ranking.Hit // every query's hits, end to end
	refs []hitRef      // parallel to hits
	ends []int         // ends[q] is where query q's hits stop
}

var framePool = sync.Pool{New: func() any { return new(frame) }}

// release returns the frame's space to the pool. The caller must hold
// the only reference: a frame some goroutine may still be filling is
// dropped instead, never released.
func (f *frame) release() { framePool.Put(f) }

// list returns query q's hits and their refs.
func (f *frame) list(q int) ([]ranking.Hit, []hitRef) {
	from := 0
	if q > 0 {
		from = f.ends[q-1]
	}
	return f.hits[from:f.ends[q]], f.refs[from:f.ends[q]]
}

// readFrom fills buf with r's bytes up to EOF, refusing more than
// maxFrameBytes.
func (f *frame) readFrom(r io.Reader) (err error) {
	f.buf, err = readBounded(f.buf[:0], r, maxFrameBytes)
	if err == errTooLong {
		err = frameErr("longer than %d bytes", maxFrameBytes)
	}
	return err
}

var errTooLong = errors.New("body too long")

// readBounded appends r's bytes up to EOF to buf, failing with
// errTooLong past limit bytes. The buffer grows by what has arrived,
// never by what a header claims.
func readBounded(buf []byte, r io.Reader, limit int) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if len(buf) > limit {
			return buf, errTooLong
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// frameReader is a bounds-checked cursor over a frame's bytes.
type frameReader struct {
	buf []byte
	pos int
}

func (r *frameReader) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, frameErr("%s: truncated or oversized varint at byte %d", what, r.pos)
	}
	r.pos += n
	return v, nil
}

// skip steps over a uvarint-length-prefixed byte string.
func (r *frameReader) skip(what string) error {
	n, err := r.uvarint(what)
	if err != nil {
		return err
	}
	if n > uint64(len(r.buf)-r.pos) {
		return frameErr("%s: %d bytes claimed, %d remain", what, n, len(r.buf)-r.pos)
	}
	r.pos += int(n)
	return nil
}

// terms reads one terms payload, appending the term numbers to dst when
// keep is set. Every number must stay below numTerms; the steps being
// unsigned, the bag cannot be out of order except by running past it.
func (r *frameReader) terms(dst []int32, keep bool, numTerms uint32) ([]int32, error) {
	n, err := r.uvarint("term count")
	if err != nil {
		return dst, err
	}
	if n > uint64(len(r.buf)-r.pos) { // a term takes at least a byte
		return dst, frameErr("%d terms claimed, %d bytes remain", n, len(r.buf)-r.pos)
	}
	t := uint64(0)
	for i := uint64(0); i < n; i++ {
		step, err := r.uvarint("term")
		if err != nil {
			return dst, err
		}
		// step < 2^32 keeps the sum far from wrapping; the bound on t
		// then rejects both unknown terms and a bag that is not sorted.
		if step >= uint64(numTerms) || t+step >= uint64(numTerms) {
			return dst, frameErr("term number %d outside a dictionary of %d", t+step, numTerms)
		}
		t += step
		if keep {
			dst = append(dst, int32(t))
		}
	}
	return dst, nil
}

// decode parses f.buf, which must hold exactly one frame answering
// queries queries. It trusts nothing: every length is checked against
// the bytes that remain before it is used, and slices grow by hits
// decoded, not by counts claimed.
func (f *frame) decode(queries int) error {
	f.hits, f.refs, f.ends = f.hits[:0], f.refs[:0], f.ends[:0]
	b := f.buf
	if len(b) < frameHeader || string(b[:len(frameMagic)]) != frameMagic {
		return frameErr("bad magic or version")
	}
	b = b[len(frameMagic):]
	if n := binary.LittleEndian.Uint32(b); uint64(n) != uint64(len(b)-4) {
		return frameErr("length %d, %d bytes follow", n, len(b)-4)
	}
	f.epoch = binary.LittleEndian.Uint64(b[4:])
	f.dict = engine.DictFingerprint{Terms: binary.LittleEndian.Uint32(b[12:]), Hash: binary.LittleEndian.Uint64(b[16:])}
	f.kind = Payload(b[24])
	if f.kind > PayloadText {
		return frameErr("unknown payload kind %d", f.kind)
	}
	r := frameReader{buf: f.buf, pos: frameHeader}
	nq, err := r.uvarint("query count")
	if err != nil {
		return err
	}
	if nq != uint64(queries) {
		return frameErr("%d lists for %d queries", nq, queries)
	}
	for q := 0; q < queries; q++ {
		n, err := r.uvarint("hit count")
		if err != nil {
			return err
		}
		if n > uint64(len(r.buf)-r.pos)/minHitBytes {
			return frameErr("%d hits claimed, %d bytes remain", n, len(r.buf)-r.pos)
		}
		for i := uint64(0); i < n; i++ {
			doc, err := r.uvarint("doc")
			if err != nil {
				return err
			}
			if doc > math.MaxInt32 {
				return frameErr("doc number %d", doc)
			}
			if len(r.buf)-r.pos < 8 {
				return frameErr("score: %d bytes remain", len(r.buf)-r.pos)
			}
			score := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.pos:]))
			r.pos += 8
			idLen, err := r.uvarint("id")
			if err != nil {
				return err
			}
			if idLen > uint64(len(r.buf)-r.pos) {
				return frameErr("id: %d bytes claimed, %d remain", idLen, len(r.buf)-r.pos)
			}
			ref := hitRef{id: uint32(r.pos), pay: uint32(r.pos + int(idLen))}
			r.pos = int(ref.pay)
			switch f.kind {
			case PayloadTerms:
				_, err = r.terms(nil, false, f.dict.Terms)
			case PayloadText:
				err = r.skip("snippet")
			}
			if err != nil {
				return err
			}
			ref.end = uint32(r.pos)
			f.hits = append(f.hits, ranking.Hit{Doc: int32(doc), Score: score})
			f.refs = append(f.refs, ref)
		}
		f.ends = append(f.ends, len(f.hits))
	}
	if r.pos != len(r.buf) {
		return frameErr("%d trailing bytes", len(r.buf)-r.pos)
	}
	return nil
}

// id returns the bytes of a hit's document ID.
func (f *frame) id(ref hitRef) []byte { return f.buf[ref.id:ref.pay] }

// termsOf appends a decoded hit's term numbers to dst[:0]. The payload
// passed decode's checks, so the error is unreachable; it is kept so a
// frame altered after decoding still cannot index out of range.
func (f *frame) termsOf(ref hitRef, dst []int32) ([]int32, error) {
	r := frameReader{buf: f.buf[:ref.end], pos: int(ref.pay)}
	return r.terms(dst[:0], true, f.dict.Terms)
}

// snippetOf returns a decoded hit's snippet as a fresh string.
func (f *frame) snippetOf(ref hitRef) string {
	_, n := binary.Uvarint(f.buf[ref.pay:ref.end])
	return string(f.buf[int(ref.pay)+n : ref.end])
}

// The request frame is the body of POST /shard/search, in the shard
// frame's style:
//
//	"RSQ" 0x01        magic, version
//	uint32            bytes that follow this field
//	uvarint           shard
//	byte              payload kind (Payload)
//	uvarint           number of queries, then per query:
//	  varint          k, zigzag (k <= 0 keeps every match)
//	  uvarint+bytes   the query as typed; the worker analyzes it
//
// The router encodes one per shard into a slice of exactly its size; the
// worker reads it into pooled scratch and cuts every query out of one
// string.
const (
	requestMagic  = "RSQ\x01"
	requestHeader = len(requestMagic) + 4
	// minQueryBytes is the smallest encoding of a query (k, empty
	// string): the bound a query count is checked against.
	minQueryBytes = 1 + 1
)

var errRequest = errors.New("malformed shard request")

func requestErr(format string, a ...any) error {
	return fmt.Errorf("%w: %s", errRequest, fmt.Sprintf(format, a...))
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// size is the length of req's request frame.
func (req ShardSearchRequest) size() int {
	n := requestHeader + uvarintLen(uint64(req.Shard)) + 1 + uvarintLen(uint64(len(req.Queries)))
	for i, q := range req.Queries {
		k := int64(req.Ks[i])
		n += uvarintLen(uint64(k)<<1^uint64(k>>63)) + uvarintLen(uint64(len(q))) + len(q)
	}
	return n
}

// frame returns req's request frame in a slice of its own, exactly as
// long as the frame. Queries and Ks must be as long as each other.
func (req ShardSearchRequest) frame() []byte {
	b := append(make([]byte, 0, req.size()), requestMagic...)
	b = append(b, 0, 0, 0, 0) // length, set below
	b = binary.AppendUvarint(b, uint64(req.Shard))
	b = append(b, byte(req.Payload))
	b = binary.AppendUvarint(b, uint64(len(req.Queries)))
	for i, q := range req.Queries {
		b = binary.AppendVarint(b, int64(req.Ks[i]))
		b = binary.AppendUvarint(b, uint64(len(q)))
		b = append(b, q...)
	}
	binary.LittleEndian.PutUint32(b[len(requestMagic):], uint32(len(b)-requestHeader))
	return b
}

// decodeRequest parses b, which must hold exactly one request frame,
// into req, reusing req's slices. It trusts nothing: a count is checked
// against the bytes that remain before anything grows by it, more than
// maxShardQueries queries are refused, and every query is cut out of one
// string copied from b, so b may be reused once it returns.
func decodeRequest(b []byte, req *ShardSearchRequest) error {
	req.Queries, req.Ks = req.Queries[:0], req.Ks[:0]
	if len(b) < requestHeader || string(b[:len(requestMagic)]) != requestMagic {
		return requestErr("bad magic or version: a request frame starts %q", requestMagic)
	}
	if n := binary.LittleEndian.Uint32(b[len(requestMagic):]); uint64(n) != uint64(len(b)-requestHeader) {
		return requestErr("length %d, %d bytes follow", n, len(b)-requestHeader)
	}
	pos := requestHeader
	uvarint := func(what string) (uint64, error) {
		v, n := binary.Uvarint(b[pos:])
		if n <= 0 {
			return 0, requestErr("%s: truncated or oversized varint at byte %d", what, pos)
		}
		pos += n
		return v, nil
	}
	shard, err := uvarint("shard")
	if err != nil {
		return err
	}
	if shard > math.MaxInt32 {
		return requestErr("shard %d", shard)
	}
	req.Shard = int(shard)
	if pos == len(b) {
		return requestErr("payload kind: no bytes remain")
	}
	req.Payload = Payload(b[pos])
	pos++
	if req.Payload > PayloadText {
		return requestErr("unknown payload kind %d", req.Payload)
	}
	nq, err := uvarint("query count")
	if err != nil {
		return err
	}
	if nq > maxShardQueries {
		return requestErr("%d queries in one batch, at most %d", nq, maxShardQueries)
	}
	if nq > uint64(len(b)-pos)/minQueryBytes {
		return requestErr("%d queries claimed, %d bytes remain", nq, len(b)-pos)
	}
	var all string // the bytes from the first query on, copied once
	base := pos
	if nq > 0 {
		all = string(b[base:])
	}
	for i := uint64(0); i < nq; i++ {
		k, n := binary.Varint(b[pos:])
		if n <= 0 {
			return requestErr("k: truncated or oversized varint at byte %d", pos)
		}
		if int64(int(k)) != k {
			return requestErr("k %d", k)
		}
		pos += n
		qLen, err := uvarint("query length")
		if err != nil {
			return err
		}
		if qLen > uint64(len(b)-pos) {
			return requestErr("query: %d bytes claimed, %d remain", qLen, len(b)-pos)
		}
		from := pos - base
		pos += int(qLen)
		req.Ks = append(req.Ks, int(k))
		req.Queries = append(req.Queries, all[from:pos-base])
	}
	if pos != len(b) {
		return requestErr("%d trailing bytes", len(b)-pos)
	}
	return nil
}
