package engine

import (
	"math"

	"darray/internal/cluster"
	"darray/internal/gam"
	"darray/internal/graph"
)

// GAM-ported engine: the same push-style algorithms with vertex state in
// GAM arrays. Every access pays the lock-based path and every neighbor
// update is an exclusive Atomic, so chunks ping-pong between updating
// nodes — the two properties behind GAM's two-orders-of-magnitude gap in
// the paper's Figure 16.

// GamGraph is one node's handle to the GAM-based engine.
type GamGraph struct {
	node   *cluster.Node
	csr    *graph.CSR
	rev    *graph.CSR
	bounds []int64
	lo, hi int64
}

// NewGamGraph collectively wraps csr for the GAM engine.
func NewGamGraph(node *cluster.Node, csr *graph.CSR) *GamGraph {
	boundsAny := node.Collective(func() any {
		return csr.Partition(node.Cluster().Nodes())
	})
	bounds := boundsAny.([]int64)
	return &GamGraph{
		node:   node,
		csr:    csr,
		bounds: bounds,
		lo:     bounds[node.ID()],
		hi:     bounds[node.ID()+1],
	}
}

// LocalRange returns this node's vertex range.
func (eg *GamGraph) LocalRange() (int64, int64) { return eg.lo, eg.hi }

func (eg *GamGraph) reverse() *graph.CSR {
	if eg.rev == nil {
		eg.rev = eg.node.Collective(func() any { return eg.csr.Reverse() }).(*graph.CSR)
	}
	return eg.rev
}

// PageRank runs iters rounds of synchronous PageRank over GAM arrays.
// Init, gather and read-back move the local range with GAM's ranged
// Read/Write (one lock-path access per chunk piece), as DArray's engine
// does with its range calls; scatter is one exclusive Atomic per edge.
func (eg *GamGraph) PageRank(ctx *cluster.Ctx, iters int) []float64 {
	c := eg.node.Cluster()
	curr := gam.New(eg.node, eg.csr.N)
	next := gam.New(eg.node, eg.csr.N)
	n := eg.csr.N
	buf, zeros := make([]uint64, eg.hi-eg.lo), make([]uint64, eg.hi-eg.lo)
	init := math.Float64bits(1.0 / float64(n))
	for k := range buf {
		buf[k] = init
	}
	curr.SetRange(ctx, eg.lo, buf)
	next.SetRange(ctx, eg.lo, zeros)
	c.Barrier(ctx)
	for it := 0; it < iters; it++ {
		for u := eg.lo; u < eg.hi; u++ {
			deg := eg.csr.OutDegree(u)
			if deg == 0 {
				continue
			}
			contrib := math.Float64frombits(curr.Get(ctx, u)) / float64(deg)
			for _, v := range eg.csr.Neighbors(u) {
				// GAM has no combining Operate: the addition is an
				// exclusive atomic on the destination chunk.
				next.Atomic(ctx, v, func(old uint64) uint64 {
					return math.Float64bits(math.Float64frombits(old) + contrib)
				})
			}
		}
		c.Barrier(ctx)
		base := (1 - prDamping) / float64(n)
		next.GetRange(ctx, eg.lo, buf)
		for k, v := range buf {
			buf[k] = math.Float64bits(base + prDamping*math.Float64frombits(v))
		}
		curr.SetRange(ctx, eg.lo, buf)
		next.SetRange(ctx, eg.lo, zeros)
		c.Barrier(ctx)
	}
	curr.GetRange(ctx, eg.lo, buf)
	out := make([]float64, eg.hi-eg.lo)
	for k, v := range buf {
		out[k] = math.Float64frombits(v)
	}
	c.Barrier(ctx)
	return out
}

// ConnectedComponents runs min-label propagation over GAM arrays, with
// PageRank's ranged init, gather and read-back.
func (eg *GamGraph) ConnectedComponents(ctx *cluster.Ctx) ([]uint64, int) {
	c := eg.node.Cluster()
	rev := eg.reverse()
	curr := gam.New(eg.node, eg.csr.N)
	next := gam.New(eg.node, eg.csr.N)
	cb, nb, infs := make([]uint64, eg.hi-eg.lo), make([]uint64, eg.hi-eg.lo), make([]uint64, eg.hi-eg.lo)
	for k := range cb {
		cb[k] = uint64(eg.lo) + uint64(k)
		infs[k] = ^uint64(0)
	}
	curr.SetRange(ctx, eg.lo, cb)
	next.SetRange(ctx, eg.lo, infs)
	c.Barrier(ctx)
	minOp := func(label uint64) func(uint64) uint64 {
		return func(old uint64) uint64 {
			if label < old {
				return label
			}
			return old
		}
	}
	iters := 0
	for {
		iters++
		for u := eg.lo; u < eg.hi; u++ {
			label := curr.Get(ctx, u)
			for _, v := range eg.csr.Neighbors(u) {
				next.Atomic(ctx, v, minOp(label))
			}
			for _, v := range rev.Neighbors(u) {
				next.Atomic(ctx, v, minOp(label))
			}
		}
		c.Barrier(ctx)
		changed := 0.0
		curr.GetRange(ctx, eg.lo, cb)
		next.GetRange(ctx, eg.lo, nb)
		for k, nl := range nb {
			if nl < cb[k] {
				cb[k] = nl
				changed = 1
			}
		}
		curr.SetRange(ctx, eg.lo, cb)
		next.SetRange(ctx, eg.lo, infs)
		if c.AllReduceSum(ctx, changed) == 0 {
			break
		}
		c.Barrier(ctx)
	}
	curr.GetRange(ctx, eg.lo, cb)
	c.Barrier(ctx)
	return cb, iters
}
