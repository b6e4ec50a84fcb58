package engine

import (
	"math"

	"darray/internal/cluster"
	"darray/internal/core"
	"darray/internal/graph"
)

// SSSP computes single-source shortest paths over a weighted graph with
// Bellman-Ford-style rounds of min-combining (an extension beyond the
// paper's two applications, exercising OpMinF64 through the Operated
// state). Unreachable vertices get +Inf. All nodes must pass the same
// weighted view of the engine's topology. Init, gather and read-back go
// a chunk at a time, as in PageRank.
func (eg *Graph) SSSP(ctx *cluster.Ctx, w *graph.WCSR, root int64) []float64 {
	if w.N != eg.csr.N {
		panic("engine: weighted view does not match the engine's graph")
	}
	c := eg.node.Cluster()
	dist := eg.newStateArray().AsF64()
	next := eg.newStateArray().AsF64()
	min := dist.RegisterOp(core.OpMinF64)
	_ = next.RegisterOp(core.OpMinF64)

	inf := math.Inf(1)
	dist.FillF64(ctx, inf)
	next.FillF64(ctx, inf)
	c.Barrier(ctx)
	if root >= eg.lo && root < eg.hi {
		dist.Set(ctx, root, 0)
	}
	c.Barrier(ctx)

	cw := dist.ChunkWords()
	dbuf, nbuf := make([]uint64, cw), make([]uint64, cw)
	for {
		// Relax every local vertex's out-edges into next.
		for u := eg.lo; u < eg.hi; u++ {
			du := dist.Get(ctx, u)
			if math.IsInf(du, 1) {
				continue
			}
			ws := w.EdgeWeights(u)
			for k, v := range w.Neighbors(u) {
				next.Apply(ctx, min, v, du+ws[k])
			}
		}
		c.Barrier(ctx)
		changed := 0.0
		eachChunk(eg.lo, eg.hi, cw, func(lo, hi int64) {
			db, nb := dbuf[:hi-lo], nbuf[:hi-lo]
			dist.GetRange(ctx, lo, db)
			next.GetRange(ctx, lo, nb)
			for k, nu := range nb {
				if math.Float64frombits(nu) < math.Float64frombits(db[k]) {
					db[k] = nu
					changed = 1
				}
				nb[k] = math.Float64bits(inf)
			}
			dist.SetRange(ctx, lo, db)
			next.SetRange(ctx, lo, nb)
		})
		if c.AllReduceSum(ctx, changed) == 0 {
			break
		}
		c.Barrier(ctx)
	}
	out := eg.readF64(ctx, dist.Array)
	c.Barrier(ctx)
	return out
}
