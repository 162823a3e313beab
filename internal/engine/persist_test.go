package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

// saveBytes returns e's RENG3 epoch file.
func saveBytes(tb testing.TB, e *Engine) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := e.SaveTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// CheckSealedFromImages asserts that every sealed segment of e's current
// state serves its bodies and its forward index straight out of the
// image it was loaded from: Load analyzes memtable documents only.
// Exported for the lifecycle round trip in package engine_test.
func CheckSealedFromImages(t testing.TB, e *Engine) {
	t.Helper()
	st := e.snapshot()
	defer st.unpin()
	for si, sg := range st.segs {
		idx := sg.seg.Index()
		if !sg.docs.Borrowed() || !idx.HasPayloads() || idx.Forward() == nil {
			t.Fatalf("sealed segment %d does not serve its image's payload and forward sections", si)
		}
	}
}

// TestLoadHostileLengthsBounded: every length and count in an epoch file
// is untrusted. A short stream claiming a huge tombstone, body, image or
// count must fail with ErrBadEngineFormat having allocated in proportion
// to the bytes present — well under 1 MiB — not to the size claimed.
func TestLoadHostileLengthsBounded(t *testing.T) {
	cfg := Config{}.withDefaults()
	u := func(v uint64) string { return string(binary.AppendUvarint(nil, v)) }
	huge := u(1 << 40)
	cases := map[string]string{
		"tombstone":       u(1) + u(1) + huge + "x",
		"tombstone count": u(1) + huge + u(1) + "x",
		"memtable count":  u(1) + u(0) + huge + u(1) + "a",
		"memtable id":     u(1) + u(0) + u(1) + huge + "a",
		"memtable body":   u(1) + u(0) + u(1) + u(1) + "a" + huge + "b",
		"segment count":   u(1) + u(0) + u(0) + huge,
		"image":           u(1) + u(0) + u(0) + u(1) + huge + "RIDX7\n\x00\x00\x01",
		"image length":    u(1) + u(0) + u(0) + u(1) + u(1<<63) + "RIDX7\n",
	}
	for name, body := range cases {
		data := []byte(engineMagic + body)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Load(bytes.NewReader(data), cfg)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadEngineFormat) {
			t.Errorf("%s: Load = %v, want ErrBadEngineFormat", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%s: a %d-byte stream allocated %d bytes", name, len(data), grew)
		}
	}
}

// FuzzLoadEngine drives Load with arbitrary bytes, seeded with real RENG3
// files — a built engine, a flushed one with tombstones and a buffered
// memtable, a compacted one — plus truncations and bit flips of them. Any
// input may be rejected, always as ErrBadEngineFormat; none may panic or
// hang, and an accepted one must serve searches.
func FuzzLoadEngine(f *testing.F) {
	built, err := Build(smallCorpus(), Config{Shards: 2})
	if err != nil {
		f.Fatal(err)
	}
	compacted := midLifecycleEngine(f)
	mid := saveBytes(f, compacted)
	if _, err := compacted.Compact(); err != nil {
		f.Fatal(err)
	}
	for _, s := range [][]byte{saveBytes(f, built), mid, saveBytes(f, compacted)} {
		f.Add(s)
		for _, cut := range []int{3, len(engineMagic) + 2, len(s) / 2, len(s) - 1} {
			f.Add(s[:cut])
		}
		for _, at := range []int{len(engineMagic), len(engineMagic) + 3, len(s) / 3, 2 * len(s) / 3} {
			flipped := append([]byte(nil), s...)
			flipped[at] ^= 0xff
			f.Add(flipped)
		}
	}
	cfg := Config{}.withDefaults()
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Load(bytes.NewReader(data), cfg)
		if err != nil {
			if !errors.Is(err, ErrBadEngineFormat) {
				t.Fatalf("Load = %v, want ErrBadEngineFormat", err)
			}
			return
		}
		defer e.Close()
		for _, q := range []string{"leopard", "apple pie recipe", liveVocab[0]} {
			e.Search(q, 10)
		}
		_ = e.Live()
	})
}
