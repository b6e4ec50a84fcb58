// Package buf provides the pooled, refcounted payload buffers behind
// the zero-copy data path. The paper's communication layer transfers
// chunks between pre-registered RDMA memory regions that are reused for
// every SEND; the Go reproduction's analogue is a size-classed
// sync.Pool of []uint64 buffers with atomic reference counts, so one
// buffer can be shared between the Tx path, a duplicated delivery on a
// lossy wire, and Rx-side installation, and returns to the pool when
// the last holder releases it.
//
// Ownership discipline: Get returns a buffer with one reference, owned
// by the caller. Attaching it to an outbound message transfers that
// reference to the message; whoever consumes the message releases it
// (or adopts the buffer outright, taking over the reference). Any extra
// holder — e.g. the wire duplicating a delivery — must Retain before
// the original reference can be released. All Ref methods are safe on a
// nil receiver, so payload-free messages carry nil refs through the same
// code paths.
//
// Building with -tags bufdebug arms misuse detection: double-release
// and use-after-release panic with the releasing call site, and
// released buffers are quarantined (never reused) so stale aliases
// cannot be masked by reuse. That build is also the never-recycling
// reference for the data path: there is no run-time switch that turns
// the pool off.
package buf

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Size classes, in 8-byte words. Chunk payloads (ChunkWords: 128 in the
// chaos harness, 512 by default) and coalesce index lists (TxBurst: 16)
// all land in-class; anything larger is allocated raw and GC-managed.
var classSizes = [...]int{64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536}

func classFor(n int) int {
	for c, sz := range classSizes {
		if n <= sz {
			return c
		}
	}
	return -1
}

// Pool is a size-classed pool of refcounted buffers. The zero value is
// not usable; call NewPool.
type Pool struct {
	classes [len(classSizes)]sync.Pool

	hits        atomic.Int64 // Get satisfied by a recycled buffer
	misses      atomic.Int64 // Get that had to allocate
	retained    atomic.Int64 // extra references taken (Retain calls)
	outstanding atomic.Int64 // buffers leased and not yet fully released
}

// NewPool builds an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get leases an n-word buffer holding one reference owned by the
// caller. The contents are unspecified (recycled buffers keep their old
// words); callers must fully overwrite the buffer before sharing it.
func (p *Pool) Get(n int) *Ref {
	if n <= 0 {
		panic(fmt.Sprintf("buf: Get(%d): size must be positive", n))
	}
	c := classFor(n)
	p.outstanding.Add(1)
	if c >= 0 {
		if v := p.classes[c].Get(); v != nil {
			r := v.(*Ref)
			r.words = r.words[:cap(r.words)][:n]
			r.refs.Store(1)
			r.noteGet()
			p.hits.Add(1)
			return r
		}
	}
	p.misses.Add(1)
	size := n
	if c >= 0 {
		size = classSizes[c]
	}
	r := &Ref{pool: p, class: c}
	r.words = make([]uint64, size)[:n]
	r.refs.Store(1)
	r.noteGet()
	return r
}

// Hits returns how many Gets were served by a recycled buffer.
func (p *Pool) Hits() int64 { return p.hits.Load() }

// Misses returns how many Gets had to allocate.
func (p *Pool) Misses() int64 { return p.misses.Load() }

// Retained returns how many extra references were taken.
func (p *Pool) Retained() int64 { return p.retained.Load() }

// Outstanding returns the number of buffers currently leased (Get minus
// final Release). Zero after a quiescent teardown means no holder
// leaked a reference.
func (p *Pool) Outstanding() int64 { return p.outstanding.Load() }

// Ref is one refcounted buffer. The words are shared by every holder;
// the last Release returns them to the pool.
type Ref struct {
	pool  *Pool
	words []uint64
	class int // size class index; -1 means raw (GC-managed on release)
	refs  atomic.Int32
	dbg   refDebug
}

// Words returns the buffer's word slice. The caller must hold a
// reference.
func (r *Ref) Words() []uint64 {
	if r == nil {
		return nil
	}
	r.checkLive("Words")
	return r.words
}

// Len returns the buffer length in words (0 for nil).
func (r *Ref) Len() int {
	if r == nil {
		return 0
	}
	return len(r.words)
}

// Retain takes an additional reference. Safe on nil (no-op).
func (r *Ref) Retain() {
	if r == nil {
		return
	}
	r.checkLive("Retain")
	r.refs.Add(1)
	r.pool.retained.Add(1)
}

// Release drops one reference; the last release returns the buffer to
// the pool. Safe on nil (no-op). Releasing more times than references
// were held panics (with the previous releasing call site under
// -tags bufdebug).
func (r *Ref) Release() {
	if r == nil {
		return
	}
	n := r.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("buf: double release of a buffer" + r.releaseSite())
	}
	r.noteRelease()
	r.pool.outstanding.Add(-1)
	if r.class < 0 || debugQuarantine {
		return // raw buffers and quarantined (bufdebug) buffers go to GC
	}
	r.pool.classes[r.class].Put(r)
}
