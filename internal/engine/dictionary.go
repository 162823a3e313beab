package engine

import (
	"sync"

	"repro/internal/textsim"
)

// DictFingerprint identifies a base dictionary: how many terms it holds
// and a 64-bit hash of them in order. Two engines whose fingerprints
// agree number their terms alike, which is what lets a shard worker ship
// a snippet window as term numbers and a router count them into the very
// vector it would have built from the snippet's text.
type DictFingerprint struct {
	Terms uint32 `json:"terms"`
	Hash  uint64 `json:"hash,string"` // quoted: 64 bits do not survive a JSON number in every reader
}

// dictPrint computes a snapshot's fingerprint at most once, on first
// use: hashing the dictionary reads every term, which an engine opened
// over a mapped image has not paid for and may never need to.
type dictPrint struct {
	once sync.Once
	fp   DictFingerprint
}

func (d *dictPrint) of(terms []string) DictFingerprint {
	d.once.Do(func() {
		// FNV-1a over the terms, each followed by a byte no analyzed
		// term holds, so that ("ab","c") and ("a","bc") differ.
		const (
			offset64 = 14695981039346656037
			prime64  = 1099511628211
		)
		h := uint64(offset64)
		for _, t := range terms {
			for i := 0; i < len(t); i++ {
				h = (h ^ uint64(t[i])) * prime64
			}
			h = (h ^ 0xff) * prime64
		}
		d.fp = DictFingerprint{Terms: uint32(len(terms)), Hash: h}
	})
	return d.fp
}

// Dictionary is a snapshot's base dictionary as the distributed tier
// uses it: the fingerprint workers and routers compare, and the table
// that turns a bag of base term numbers into a surrogate vector.
type Dictionary struct {
	Fingerprint DictFingerprint
	idf         textsim.SliceIDF
}

// Dictionary returns the current snapshot's base dictionary.
func (e *Engine) Dictionary() Dictionary {
	st := e.snapshot()
	defer st.unpin() // the terms of a mapped index are read under the pin
	return Dictionary{
		Fingerprint: st.dict.of(st.segs[0].seg.Index().Terms()),
		idf:         st.idf,
	}
}

// Vector counts a bag of base term numbers — one entry per occurrence,
// ascending, each below Fingerprint.Terms — into its IDF-weighted
// surrogate vector: IVectorOfText of any text that analyzes to those
// terms, bit for bit. The vector is carved out of slab (nil: allocated on
// its own).
func (d Dictionary) Vector(terms []int32, slab *textsim.Slab) textsim.IVector {
	return d.idf.InternSorted(terms, nil, slab)
}
