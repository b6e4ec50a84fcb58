package engine

import (
	"math"
	"sync"
	"testing"

	"darray/internal/cluster"
	"darray/internal/vtime"
)

func TestPageRankMTMatchesSingleThread(t *testing.T) {
	g := testGraph()
	want := refPageRank(g, 4)
	for _, usePin := range []bool{false, true} {
		c := tc(t, 2)
		locals := make([][]float64, 2)
		var bounds []int64
		c.Run(func(n *cluster.Node) {
			eg := NewGraph(n, g)
			if n.ID() == 0 {
				bounds = eg.Bounds()
			}
			locals[n.ID()] = eg.PageRankMT(n.NewCtx(0), 4, 3, usePin)
		})
		got := gatherF64(c, bounds, locals)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("pin=%v: mt rank[%d] = %g, want %g", usePin, i, got[i], want[i])
			}
		}
	}
}

// A team of one thread charges exactly what the caller's own context
// would: every phase starts at the caller's clock and hands its time back,
// so the caller's barriers see the scatter and gather.
func TestMTClockMatchesSingleThread(t *testing.T) {
	g := testGraph()
	c := cluster.New(cluster.Config{Nodes: 1, ChunkWords: 96, CacheChunks: 64, Model: vtime.Default()})
	t.Cleanup(c.Close)
	c.Run(func(n *cluster.Node) {
		eg := NewGraph(n, g)
		advance := func(run func(ctx *cluster.Ctx)) int64 {
			ctx := n.NewCtx(0)
			run(ctx)
			return ctx.Clock.Now()
		}
		for _, usePin := range []bool{false, true} {
			solo := advance(func(ctx *cluster.Ctx) { eg.PageRank(ctx, 3, usePin) })
			mt := advance(func(ctx *cluster.Ctx) { eg.PageRankMT(ctx, 3, 1, usePin) })
			if solo != mt {
				t.Errorf("pin=%v: PageRankMT(t=1) advanced the caller %d vns, PageRank %d", usePin, mt, solo)
			}
			solo = advance(func(ctx *cluster.Ctx) { eg.ConnectedComponents(ctx, usePin) })
			mt = advance(func(ctx *cluster.Ctx) { eg.ConnectedComponentsMT(ctx, 1, usePin) })
			if solo != mt {
				t.Errorf("pin=%v: ConnectedComponentsMT(t=1) advanced the caller %d vns, ConnectedComponents %d", usePin, mt, solo)
			}
		}
	})
}

func TestConnectedComponentsMTMatchesReference(t *testing.T) {
	g := testGraph()
	want := refCC(g)
	c := tc(t, 2)
	locals := make([][]uint64, 2)
	var bounds []int64
	c.Run(func(n *cluster.Node) {
		eg := NewGraph(n, g)
		if n.ID() == 0 {
			bounds = eg.Bounds()
		}
		labels, iters := eg.ConnectedComponentsMT(n.NewCtx(0), 3, false)
		if iters < 1 {
			t.Errorf("iters = %d", iters)
		}
		locals[n.ID()] = labels
	})
	got := make([]uint64, g.N)
	for p, l := range locals {
		copy(got[bounds[p]:], l)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mt label[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// The team's vertex shares cover the local range exactly once, and its
// block shares cover the push list exactly once, with no thread's blocks
// overlapping another's.
func TestParallelRangeCoversExactly(t *testing.T) {
	g := testGraph()
	c := tc(t, 2)
	c.Run(func(n *cluster.Node) {
		eg := NewGraph(n, g)
		seen := make([]int32, eg.hi-eg.lo)
		tm := eg.newTeam(n.NewCtx(0), 4)
		var mu sync.Mutex
		tm.vertices(eg.lo, eg.hi, func(_ *cluster.Ctx, _ int, lo, hi int64) {
			mu.Lock()
			for u := lo; u < hi; u++ {
				seen[u-eg.lo]++
			}
			mu.Unlock()
		})
		for i, v := range seen {
			if v != 1 {
				t.Errorf("vertex %d covered %d times", eg.lo+int64(i), v)
				return
			}
		}
		pl := eg.outList()
		next := 0
		for k := 0; k < 4; k++ {
			b0, b1 := pl.split(k, 4)
			if b0 != next || b1 < b0 {
				t.Errorf("thread %d got blocks [%d, %d), want to start at %d", k, b0, b1, next)
			}
			next = b1
		}
		if next != len(pl.blocks)-1 {
			t.Errorf("threads covered %d of %d blocks", next, len(pl.blocks)-1)
		}
	})
}
