package index

import (
	"sync/atomic"
	"unsafe"
)

// Mapped storage: an Index can be backed either by heap slices it owns
// (Build, and an RIDX7 image read onto a heap slab by ReadSegmented)
// or by one contiguous read-only byte region served in place — an
// mmap'ed RIDX7 file (OpenMapped). The Mapping below is the ownership
// unit of the second kind: a refcount on the region that keeps the bytes
// addressable until the last reader drops.
//
// The refcount protocol has exactly three classes of holder:
//
//   - the Index itself: one reference taken at open, dropped by Close;
//   - every PostingIterator created from a mapped index: retained at
//     creation, dropped by Release — so a search that raced an unmap
//     (engine epoch swap retiring a mapped segment) keeps the pages
//     alive until its last iterator drops;
//   - the engine's state snapshots, which retain whole mapped indexes
//     for the duration of a pinned search (see package engine).
//
// Releasing a mapped iterator is therefore mandatory, not just a pool
// courtesy: a leaked reference keeps the file mapped. All hot paths
// already Release for scratch-pool reasons.
//
// Unmapping runs when the count hits zero; after that any dangling view
// into the region is a bug the refcount exists to prevent. The owned
// (heap) layout has a nil Mapping and none of this applies — the garbage
// collector is the refcount.

// Mapping is one refcounted byte region backing a mapped index. The zero
// reference point unmaps (for OS mappings) or drops (for the portable
// heap-slab fallback) the region.
type Mapping struct {
	data []byte
	os   bool // true: data came from mmap and must be munmapped
	refs atomic.Int64
}

// activeMappings counts live Mapping regions process-wide (created by
// OpenMapped, destroyed when their refcount drains). Tests assert it
// returns to baseline to prove no mapping leaks or early unmaps.
var activeMappings atomic.Int64

// ActiveMappings reports the number of live mapped index regions in the
// process. It exists for tests and stats endpoints.
func ActiveMappings() int64 { return activeMappings.Load() }

func (m *Mapping) retain() { m.refs.Add(1) }

func (m *Mapping) release() {
	if m.refs.Add(-1) != 0 {
		return
	}
	if m.os {
		munmapBytes(m.data)
	}
	m.data = nil
	activeMappings.Add(-1)
}

// Advice hints the kernel about the expected access pattern of a mapped
// index region (madvise). Owned indexes ignore advice.
type Advice int

const (
	// AdviseNormal resets to the default readahead behavior.
	AdviseNormal Advice = iota
	// AdviseRandom disables readahead — right for posting blocks reached
	// by block-max skipping, where touching one page predicts nothing
	// about the next.
	AdviseRandom
	// AdviseSequential doubles down on readahead — right for a one-pass
	// scan (ComputeBlockMaxScores over a freshly opened index).
	AdviseSequential
	// AdviseWillNeed asks the kernel to start faulting the region in now.
	AdviseWillNeed
)

// Advise applies an access-pattern hint to the whole mapped region.
// On an owned (heap) index, or on platforms without madvise, it is a
// no-op. Errors are advisory and can be ignored.
func (x *Index) Advise(a Advice) error {
	if x.mapping == nil || !x.mapping.os || len(x.mapping.data) == 0 {
		return nil
	}
	return madviseBytes(x.mapping.data, a)
}

// Mapped reports whether the index is served off a mapped file region
// (OpenMapped) rather than heap memory.
func (x *Index) Mapped() bool { return x.mapping != nil }

// Retain takes an additional reference on the index's backing region,
// keeping it addressable until the matching Release — the hook the
// engine's epoch snapshots use so a swap never unmaps under a reader.
// No-op on owned indexes.
func (x *Index) Retain() {
	if x.mapping != nil {
		x.mapping.retain()
	}
}

// Release drops a reference taken by Retain.
func (x *Index) Release() {
	if x.mapping != nil {
		x.mapping.release()
	}
}

// Close drops the index's own reference to its backing region. The
// region stays addressable while iterators or Retain holders remain;
// the last of them unmaps. Close is idempotent and a no-op on owned
// indexes. After Close the index must not create new iterators.
func (x *Index) Close() error {
	if x.mapping != nil && x.closed.CompareAndSwap(false, true) {
		x.mapping.release()
	}
	return nil
}

// Close closes the underlying index (see Index.Close).
func (s *Segmented) Close() error { return s.idx.Close() }

// hostLittleEndian reports whether the host stores integers little-
// endian — the RIDX7 wire order. On the (rare) big-endian host every
// numeric section falls back to copy-decode at open.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// headerLayoutOK reports whether blockHeader's in-memory layout matches
// the 12-byte RIDX7 wire record {maxDoc i32, off u32, n i32} — the
// precondition for viewing the header section in place. The gc compiler
// lays consecutive 4-byte fields out exactly like this; the check keeps
// a hypothetical layout change from silently corrupting reads.
var headerLayoutOK = unsafe.Sizeof(blockHeader{}) == blockHeaderBytes &&
	unsafe.Offsetof(blockHeader{}.maxDoc) == 0 &&
	unsafe.Offsetof(blockHeader{}.off) == 4 &&
	unsafe.Offsetof(blockHeader{}.n) == 8

// aligned8 reports whether the slice's base address is 8-byte aligned
// (required before reinterpreting it as 8-byte numerics).
func aligned8(b []byte) bool {
	if len(b) == 0 {
		return true
	}
	return uintptr(unsafe.Pointer(&b[0]))%8 == 0
}
