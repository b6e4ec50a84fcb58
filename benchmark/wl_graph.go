package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"darray/internal/cluster"
	"darray/internal/engine"
	"darray/internal/graph"
)

// graph_pagerank: the paper's graph application (Fig. 16). One rep and
// one timed unit is a PageRank call of prIters iterations on an R-MAT
// graph; one op is one edge update. Every call's ranks are compared
// with a sequential reference computed here.
const (
	prScale = 17
	prIters = 10
	prTol   = 1e-9
)

type prInst struct {
	graphs [nodes]*engine.Graph
	ref    []float64        // reference ranks, whole graph
	out    [nodes][]float64 // each node's last result
	badAt  int64            // verify hook: vertex whose reference is corrupted (-1 = none)
}

func setupPageRank(e env) *built {
	cfg := graph.DefaultRMAT(prScale)
	if e.scale < 1 {
		cfg.Scale = 10
	}
	cfg.Seed = e.seed
	csr := graph.RMAT(cfg)

	h := fnv.New64a()
	var w [8]byte
	for _, s := range [][]int64{csr.Offs, csr.Dsts} {
		for _, x := range s {
			binary.LittleEndian.PutUint64(w[:], uint64(x))
			h.Write(w[:])
		}
	}

	inst := &prInst{ref: referencePageRank(csr, prIters), badAt: -1}
	c := cluster.New(e.clusterConfig(0))
	b := newBuilt(c, e)
	b.inst = inst
	b.inputHash = h.Sum64()
	b.unitsPerRep = 1
	b.itersPerRep = prIters
	b.opsPerRep = csr.Edges() * prIters
	b.arrayWords = 2 * csr.N // curr and next vertex-state arrays
	b.c.Run(func(n *cluster.Node) {
		inst.graphs[n.ID()] = engine.NewGraph(n, csr)
	})
	return b
}

// referencePageRank is the engine's recurrence run sequentially: push
// rank/degree along out-edges, then fold damping. Like the engine it
// lets dangling vertices leak mass, so the ranks need not sum to 1; the
// comparison is per vertex.
func referencePageRank(g *graph.CSR, iters int) []float64 {
	const damping = 0.85
	curr := make([]float64, g.N)
	next := make([]float64, g.N)
	for i := range curr {
		curr[i] = 1 / float64(g.N)
	}
	base := (1 - damping) / float64(g.N)
	for it := 0; it < iters; it++ {
		for u := int64(0); u < g.N; u++ {
			if deg := g.OutDegree(u); deg > 0 {
				contrib := curr[u] / float64(deg)
				for _, v := range g.Neighbors(u) {
					next[v] += contrib
				}
			}
		}
		for u := range curr {
			curr[u] = base + damping*next[u]
			next[u] = 0
		}
	}
	return curr
}

func (p *prInst) rep(t *thread) {
	h, v := now(), t.ctx.Clock.Now()
	sp := t.sp.begin(spEnginePageRank, 0, t.ctx)
	p.out[t.id] = p.graphs[t.id].PageRank(t.ctx, prIters, false)
	t.sp.end(sp, t.ctx)
	t.sample(now()-h, t.ctx.Clock.Now()-v)
}

// verify counts every vertex whose rank is off by more than prTol as
// that vertex's share of the rep's edge updates.
func (p *prInst) verify(t *thread) {
	lo, _ := p.graphs[t.id].LocalRange()
	g := p.graphs[t.id].CSR()
	for i, r := range p.out[t.id] {
		u := lo + int64(i)
		want := p.ref[u]
		if u == p.badAt {
			want++
		}
		if !(math.Abs(r-want) <= prTol) {
			t.failed += max(g.OutDegree(u), 1) * prIters
		}
	}
}

// plant makes the verifier expect a wrong rank for vertex 0.
func (p *prInst) plant(t *thread) {
	if t.id == 0 {
		p.badAt = 0
	}
}
