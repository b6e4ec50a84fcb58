// Package gam implements the GAM baseline (Cai et al., VLDB 2018): an
// RDMA-based distributed memory with a coherent cache whose data access
// path is lock-based, and whose atomic read-modify-write interface
// requires exclusive ownership.
//
// The baseline shares the directory-protocol substrate with
// internal/core and differs in exactly the two properties the paper
// attributes GAM's performance gap to (§2, §6):
//
//   - every access takes a per-chunk mutex and consults a cache index
//     map (GAM's hash-table lookup) — the "lock-based approach" whose
//     overhead and serialization §4.1 argues against;
//   - Atomic performs the update under exclusive (write) ownership, so
//     concurrent updaters ping-pong the chunk instead of combining
//     locally the way DArray's Operate interface does.
//
// This makes the comparison a controlled ablation: protocol and fabric
// identical, access path and update semantics swapped.
package gam

import (
	"sync"

	"darray/internal/cluster"
	"darray/internal/core"
)

const lockShards = 256

// Array is a GAM-style distributed memory region of 8-byte words.
type Array struct {
	inner *core.Array
	node  *cluster.Node

	// lockWords backs the distributed locks GAM-style: lock state lives
	// in DSM words manipulated with exclusive atomics, so every acquire
	// migrates ownership of the word's whole chunk — including false
	// sharing with neighbouring locks, the effect §4.1 calls out.
	lockWords *core.Array

	// Sharded per-chunk mutexes: the lock-based data access path. Two
	// threads touching the same chunk serialize here (and false sharing
	// of shards serializes more, as in any hashed lock table).
	mus [lockShards]sync.Mutex

	// index simulates GAM's cacheline hash-table lookup on every access.
	idxMu sync.RWMutex
	index map[int64]int64
}

// New collectively creates a GAM array of n words.
func New(node *cluster.Node, n int64) *Array {
	g := &Array{
		inner:     core.New(node, n),
		lockWords: core.New(node, n),
		node:      node,
		index:     make(map[int64]int64),
	}
	return g
}

// Len returns the global element count.
func (g *Array) Len() int64 { return g.inner.Len() }

// LocalRange returns this node's homed element range.
func (g *Array) LocalRange() (int64, int64) { return g.inner.LocalRange() }

// HomeOf returns the home node of element i.
func (g *Array) HomeOf(i int64) int { return g.inner.HomeOf(i) }

// Inner exposes the underlying array (tests, metrics).
func (g *Array) Inner() *core.Array { return g.inner }

func (g *Array) shard(i int64) *sync.Mutex {
	return &g.mus[(i/g.inner.ChunkWords())%lockShards]
}

// lookup performs the cache-index hash lookup GAM does on each access.
func (g *Array) lookup(ci int64) {
	g.idxMu.RLock()
	_, ok := g.index[ci]
	g.idxMu.RUnlock()
	if !ok {
		g.idxMu.Lock()
		g.index[ci] = ci
		g.idxMu.Unlock()
	}
}

func (g *Array) charge(ctx *cluster.Ctx) {
	if m := g.node.Cluster().Model(); m != nil {
		ctx.Clock.Advance(m.GamAccess)
	}
}

// Get reads element i through the lock-based access path.
func (g *Array) Get(ctx *cluster.Ctx, i int64) uint64 {
	mu := g.shard(i)
	mu.Lock()
	g.lookup(i / g.inner.ChunkWords())
	v := g.inner.Get(ctx, i)
	mu.Unlock()
	g.charge(ctx)
	return v
}

// Set writes element i through the lock-based access path.
func (g *Array) Set(ctx *cluster.Ctx, i int64, v uint64) {
	mu := g.shard(i)
	mu.Lock()
	g.lookup(i / g.inner.ChunkWords())
	g.inner.Set(ctx, i, v)
	mu.Unlock()
	g.charge(ctx)
}

// GetRange reads elements [i, i+len(dst)) — GAM's Read(addr, size). The
// lock-based access path is per cache line, not per word: each chunk
// piece of the range takes the shard mutex, does the index lookup and is
// charged one access, around the protocol's own ranged copy.
func (g *Array) GetRange(ctx *cluster.Ctx, i int64, dst []uint64) {
	g.eachPiece(ctx, i, int64(len(dst)), func(i, lo, hi int64) { g.inner.GetRange(ctx, i, dst[lo:hi]) })
}

// SetRange writes src to elements [i, i+len(src)) — GAM's Write(addr,
// size), chunk piece by chunk piece like GetRange.
func (g *Array) SetRange(ctx *cluster.Ctx, i int64, src []uint64) {
	g.eachPiece(ctx, i, int64(len(src)), func(i, lo, hi int64) { g.inner.SetRange(ctx, i, src[lo:hi]) })
}

// eachPiece splits [i, i+n) at chunk boundaries and runs access on each
// piece — its first element and its bounds within the caller's buffer —
// through the lock-based access path.
func (g *Array) eachPiece(ctx *cluster.Ctx, i, n int64, access func(i, lo, hi int64)) {
	cw := g.inner.ChunkWords()
	for lo := int64(0); lo < n; {
		hi := min(n, lo+cw-(i+lo)%cw)
		mu := g.shard(i + lo)
		mu.Lock()
		g.lookup((i + lo) / cw)
		access(i+lo, lo, hi)
		mu.Unlock()
		g.charge(ctx)
		lo = hi
	}
}

// Atomic applies fn to element i under exclusive ownership: the chunk
// migrates to the caller as Dirty and the update happens in place. This
// is GAM's atomic interface; under contention ownership ping-pongs.
func (g *Array) Atomic(ctx *cluster.Ctx, i int64, fn func(uint64) uint64) {
	mu := g.shard(i)
	mu.Lock()
	g.lookup(i / g.inner.ChunkWords())
	// Acquire exclusive ownership and hold it across the
	// read-modify-write; other nodes' requests wait until release.
	p := g.inner.PinWrite(ctx, i)
	p.Set(ctx, i, fn(p.Get(ctx, i)))
	p.Unpin(ctx)
	mu.Unlock()
	g.charge(ctx)
	g.charge(ctx)
}

// Lock word layout: bit 63 = writer held, bit 62 = writer intent,
// low bits = reader count.
const (
	lwWriter = uint64(1) << 63
	lwIntent = uint64(1) << 62
)

// atomicLockOp applies fn to lock word i under exclusive ownership and
// reports fn's verdict. Each call migrates the word's chunk — the cost
// structure of GAM's DSM-resident locks. Exclusive ownership (PinWrite)
// serializes nodes; the shard mutex serializes this node's threads, as
// everywhere else on GAM's lock-based access path.
func (g *Array) atomicLockOp(ctx *cluster.Ctx, i int64, fn func(uint64) (uint64, bool)) bool {
	mu := g.shard(i)
	mu.Lock()
	defer mu.Unlock()
	p := g.lockWords.PinWrite(ctx, i)
	old := p.Get(ctx, i)
	next, ok := fn(old)
	if next != old {
		p.Set(ctx, i, next)
	}
	p.Unpin(ctx)
	if m := g.node.Cluster().Model(); m != nil {
		ctx.Clock.Advance(m.GamAccess)
	}
	return ok
}

// RLock takes element i's lock in shared mode by spinning on the DSM
// lock word. Readers defer to a pending writer's intent bit.
func (g *Array) RLock(ctx *cluster.Ctx, i int64) {
	for !g.atomicLockOp(ctx, i, func(w uint64) (uint64, bool) {
		if w&(lwWriter|lwIntent) != 0 {
			return w, false
		}
		return w + 1, true
	}) {
	}
}

// WLock takes element i's lock exclusively: first raise the intent bit,
// then spin until the reader count drains.
func (g *Array) WLock(ctx *cluster.Ctx, i int64) {
	for !g.atomicLockOp(ctx, i, func(w uint64) (uint64, bool) {
		if w&lwWriter != 0 {
			return w | lwIntent, false
		}
		if w&^(lwWriter|lwIntent) != 0 { // readers active
			return w | lwIntent, false
		}
		return (w &^ lwIntent) | lwWriter, true
	}) {
	}
}

// Unlock releases element i's lock (reader or writer).
func (g *Array) Unlock(ctx *cluster.Ctx, i int64) {
	g.atomicLockOp(ctx, i, func(w uint64) (uint64, bool) {
		if w&lwWriter != 0 {
			return w &^ lwWriter, true
		}
		return w - 1, true
	})
}
