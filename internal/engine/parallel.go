package engine

import (
	"sync"

	"darray/internal/cluster"
	"darray/internal/core"
)

// Multithreaded variants: the paper's Figure 16 runs the engines with
// all available cores per node. Each node's local vertex range is split
// across t application threads; DArray's lock-free access path and the
// Operated state's CAS combining are what let them share chunks without
// engine-level locking.

// PageRankMT runs PageRank with t application threads per node.
func (eg *Graph) PageRankMT(node *cluster.Node, iters, t int, usePin bool) []float64 {
	c := node.Cluster()
	curr := eg.newStateArray().AsF64()
	next := eg.newStateArray().AsF64()
	add := curr.RegisterOp(core.OpAddF64)
	_ = next.RegisterOp(core.OpAddF64)
	n := eg.csr.N

	root := node.NewCtx(0)
	curr.FillF64(root, 1.0/float64(n))
	next.FillF64(root, 0)
	c.Barrier(root)

	cw := curr.ChunkWords()
	zeros := make([]uint64, cw) // read-only, shared by the gather threads
	for it := 0; it < iters; it++ {
		eg.parallelRange(node, t, func(ctx *cluster.Ctx, lo, hi int64) {
			for u := lo; u < hi; u++ {
				deg := eg.csr.OutDegree(u)
				if deg == 0 {
					continue
				}
				contrib := curr.Get(ctx, u) / float64(deg)
				for _, v := range eg.csr.Neighbors(u) {
					next.Apply(ctx, add, v, contrib)
				}
			}
		})
		c.Barrier(root)
		eg.parallelRange(node, t, func(ctx *cluster.Ctx, lo, hi int64) {
			eg.gatherRanks(ctx, curr.Array, next.Array, lo, hi, make([]uint64, cw), zeros)
		})
		c.Barrier(root)
	}
	out := eg.readF64(root, curr.Array, make([]uint64, cw))
	c.Barrier(root)
	return out
}

// ConnectedComponentsMT runs CC with t application threads per node.
func (eg *Graph) ConnectedComponentsMT(node *cluster.Node, t int) ([]uint64, int) {
	c := node.Cluster()
	rev := eg.reverse()
	curr := eg.newStateArray()
	next := eg.newStateArray()
	min := curr.RegisterOp(core.OpMinU64)
	_ = next.RegisterOp(core.OpMinU64)

	root := node.NewCtx(0)
	cw := curr.ChunkWords()
	infs := make([]uint64, cw)
	eg.initLabels(root, curr, next, make([]uint64, cw), infs)
	c.Barrier(root)
	iters := 0
	for {
		iters++
		eg.parallelRange(node, t, func(ctx *cluster.Ctx, lo, hi int64) {
			for u := lo; u < hi; u++ {
				label := curr.Get(ctx, u)
				for _, v := range eg.csr.Neighbors(u) {
					next.Apply(ctx, min, v, label)
				}
				for _, v := range rev.Neighbors(u) {
					next.Apply(ctx, min, v, label)
				}
			}
		})
		c.Barrier(root)
		var changed atomicFloat
		eg.parallelRange(node, t, func(ctx *cluster.Ctx, lo, hi int64) {
			if eg.gatherLabels(ctx, curr, next, lo, hi, make([]uint64, cw), make([]uint64, cw), infs) {
				changed.set()
			}
		})
		if c.AllReduceSum(root, changed.get()) == 0 {
			break
		}
		c.Barrier(root)
	}
	out := eg.readU64(root, curr)
	c.Barrier(root)
	return out, iters
}

// parallelRange splits this node's vertex range across t threads.
func (eg *Graph) parallelRange(node *cluster.Node, t int, fn func(ctx *cluster.Ctx, lo, hi int64)) {
	if t <= 1 {
		fn(node.NewCtx(0), eg.lo, eg.hi)
		return
	}
	span := eg.hi - eg.lo
	var wg sync.WaitGroup
	for i := 0; i < t; i++ {
		lo := eg.lo + span*int64(i)/int64(t)
		hi := eg.lo + span*int64(i+1)/int64(t)
		wg.Add(1)
		go func(tid int, lo, hi int64) {
			defer wg.Done()
			fn(node.NewCtx(tid), lo, hi)
		}(i, lo, hi)
	}
	wg.Wait()
}

// atomicFloat is a tiny sticky changed-flag usable from many threads.
type atomicFloat struct {
	mu  sync.Mutex
	val float64
}

func (a *atomicFloat) set() {
	a.mu.Lock()
	a.val = 1
	a.mu.Unlock()
}

func (a *atomicFloat) get() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.val
}
