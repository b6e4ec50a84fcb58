package engine

import (
	"math"
	"slices"
	"sort"

	"darray/internal/cluster"
	"darray/internal/core"
	"darray/internal/graph"
)

// Scatter is propagation blocking (Beamer, Asanović and Patterson, IPDPS
// 2017) in DArray's Operate interface. A node's local edges are sorted
// by destination vertex once (SSSP's weighted list once per call); each
// iteration then reads the value of every local vertex that pushes,
// fills the operands privately, and combines each thread's blocks with
// one ApplyAt. Its runs are the blocks, in ascending chunk order, so the
// call takes one Operate acquisition per destination chunk instead of
// one Apply control path per edge, and keeps up to PipelineDepth of
// those Operated grants in flight. Inside a block a vertex's operands
// are adjacent, so the run folds them through the operator and pays one
// CAS per distinct destination, not per edge (the duplicates
// sender-side combining folds before shared memory).
// PageRank pushes ranks along its out-edge list; CC, BFS and SSSP are one
// min-propagation (propagate, engine.go) over the undirected list, the
// out-edge list and a weighted list. BFS and SSSP push only from the
// vertices whose value fell last round: each thread compacts the edges
// of those vertices, host-side and in list order, before its ApplyAt, so
// a frontier-sparse round combines only the frontier's edges and still
// passes ApplyAt destinations in ascending order.

// pushList is one node's edges sorted by destination vertex. A stable
// counting sort builds it, so each destination's edges keep the order of
// a per-vertex walk: it receives its operands in source order, which
// keeps a folded floating-point sum the one per-edge combining gave.
type pushList struct {
	dst    []int64   // destination vertex of each edge
	src    []int32   // its source, as an offset into the local vertex range
	w      []float64 // its weight, on a weighted list (SSSP's); else nil
	blocks []int     // edges blocks[b]:blocks[b+1] share a destination chunk
}

// newPushList sorts the edges of [lo, hi) in every adjacency of adj
// (for each vertex, adj[0]'s edges first) by destination vertex, over n
// vertices, and blocks them by destination chunk of cw words. A non-nil
// w weighs a single adjacency's edges, indexed like its Dsts.
func newPushList(lo, hi, n, cw int64, w []float64, adj ...*graph.CSR) *pushList {
	start := make([]int, n+1) // start[v+1] counts vertex v's edges, then prefix-sums
	for _, g := range adj {
		for _, v := range g.Dsts[g.Offs[lo]:g.Offs[hi]] {
			start[v+1]++
		}
	}
	pl := &pushList{}
	for v := int64(0); v < n; v++ {
		if v%cw == 0 {
			pl.blocks = append(pl.blocks, start[v])
		}
		start[v+1] += start[v]
	}
	pl.blocks = slices.Compact(append(pl.blocks, start[n])) // drop the empty chunks
	pl.dst, pl.src = make([]int64, start[n]), make([]int32, start[n])
	if w != nil {
		pl.w = make([]float64, start[n])
	}
	for u := lo; u < hi; u++ {
		for _, g := range adj {
			for e, v := range g.Neighbors(u) {
				k := start[v]
				start[v]++
				pl.dst[k], pl.src[k] = v, int32(u-lo)
				if w != nil {
					pl.w[k] = w[g.Offs[u]+int64(e)]
				}
			}
		}
	}
	return pl
}

// split returns thread k of t's blocks [b0, b1), balanced by edges.
func (pl *pushList) split(k, t int) (b0, b1 int) {
	at := func(k int) int { return sort.SearchInts(pl.blocks, len(pl.dst)*k/t) }
	return at(k), at(k + 1)
}

// outList returns the node's out-edge push list (PageRank's), built on
// first use.
func (eg *Graph) outList() *pushList {
	if eg.out == nil {
		eg.out = newPushList(eg.lo, eg.hi, eg.csr.N, eg.chunkWords(), nil, eg.csr)
	}
	return eg.out
}

// undirectedList returns the push list over out- and in-edges (CC's
// undirected view), built on first use. It is collective on first use:
// it materializes the transpose.
func (eg *Graph) undirectedList() *pushList {
	if eg.undirected == nil {
		eg.undirected = newPushList(eg.lo, eg.hi, eg.csr.N, eg.chunkWords(), nil, eg.csr, eg.reverse())
	}
	return eg.undirected
}

// scatter pushes local vertices' values along pl into next under op: the
// threads read the values over the vertex range, then each combines its
// share of pl's blocks with one ApplyAt. With mp nil every vertex pushes
// its rank over its out-degree along each edge (PageRank). Otherwise the
// vertices mp marks pending push their values, and an edge carries the
// value + mp.hop, or on a weighted list the value + its weight as
// float64s; a thread compacts its pushing edges in order, so the
// destinations still ascend.
func (eg *Graph) scatter(tm *team, curr, next *core.Array, op core.OpID, pl *pushList, usePin bool, mp *minProp) {
	if eg.vals == nil {
		eg.vals = make([]uint64, eg.hi-eg.lo)
	}
	if len(eg.ops) < len(pl.dst) {
		eg.ops = make([]uint64, len(pl.dst))
	}
	if mp != nil && len(eg.dsts) < len(pl.dst) {
		eg.dsts = make([]int64, len(pl.dst))
	}
	tm.vertices(eg.lo, eg.hi, func(ctx *cluster.Ctx, _ int, lo, hi int64) {
		eg.loadVals(ctx, curr, lo, hi, usePin, mp)
	})
	tm.run(func(ctx *cluster.Ctx, k int) {
		b0, b1 := pl.split(k, len(tm.ctxs))
		s, e := pl.blocks[b0], pl.blocks[b1]
		ops := eg.ops[s:e]
		if mp == nil {
			for j, u := range pl.src[s:e] {
				ops[j] = eg.vals[u]
			}
			next.ApplyAt(ctx, op, pl.dst[s:e], ops)
			return
		}
		dst, m := eg.dsts[s:e], 0
		for j, u := range pl.src[s:e] {
			if !mp.pushes(int64(u)) {
				continue
			}
			x := eg.vals[u] + mp.hop
			if pl.w != nil {
				x = math.Float64bits(math.Float64frombits(eg.vals[u]) + pl.w[s+j])
			}
			dst[m], ops[m] = pl.dst[s+j], x
			m++
		}
		next.ApplyAt(ctx, op, dst[:m], ops[:m])
	})
}

// loadVals sets the value each vertex of [lo, hi) pushes this iteration:
// with mp nil its rank over its out-degree (a dangling vertex pushes
// nothing and is not read), else its value if mp marks it pending. curr
// is read with one Get per vertex, or with usePin through one PinRead
// per chunk: that is the DArray-Pin series' only difference.
func (eg *Graph) loadVals(ctx *cluster.Ctx, curr *core.Array, lo, hi int64, usePin bool, mp *minProp) {
	eachChunk(lo, hi, curr.ChunkWords(), func(lo, hi int64) {
		var p *core.Pin
		if usePin {
			p = curr.PinRead(ctx, lo)
		}
		for u := lo; u < hi; u++ {
			deg := eg.csr.OutDegree(u)
			if mp == nil && deg == 0 || mp != nil && !mp.pushes(u-eg.lo) {
				continue
			}
			var x uint64
			if p != nil {
				x = p.Get(ctx, u)
			} else {
				x = curr.Get(ctx, u)
			}
			if mp == nil {
				x = math.Float64bits(math.Float64frombits(x) / float64(deg))
			}
			eg.vals[u-eg.lo] = x
		}
		if p != nil {
			p.Unpin(ctx)
		}
	})
}
