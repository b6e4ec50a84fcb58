package engine

import (
	"sync"

	"darray/internal/cluster"
)

// Multithreaded variants: the paper's Figure 16 runs the engines with
// all available cores per node. Each node's local vertex range, and its
// push list's blocks, are split across t application threads; DArray's
// lock-free access path and the Operated state's CAS combining are what
// let them share chunks without engine-level locking. The single-threaded
// calls run the same code on a team of one: the caller's own context.

// PageRankMT runs PageRank with t application threads per node; ctx is
// the calling thread, which waits for the others and carries their
// virtual time into the barriers.
func (eg *Graph) PageRankMT(ctx *cluster.Ctx, iters, t int, usePin bool) []float64 {
	return eg.pageRank(eg.newTeam(ctx, t), iters, usePin)
}

// ConnectedComponentsMT runs CC with t application threads per node.
func (eg *Graph) ConnectedComponentsMT(ctx *cluster.Ctx, t int, usePin bool) ([]uint64, int) {
	return eg.connectedComponents(eg.newTeam(ctx, t), usePin)
}

// team is the application threads of one engine call on a node, with
// their contexts built once per call. Every phase starts each thread at
// root's clock and ends with root at the latest thread's, so root's
// barriers see the time the threads spent.
type team struct {
	root *cluster.Ctx
	ctxs []*cluster.Ctx
}

// newTeam builds t threads (at least one) working for root.
func (eg *Graph) newTeam(root *cluster.Ctx, t int) *team {
	ctxs := make([]*cluster.Ctx, max(t, 1))
	for k := range ctxs {
		ctxs[k] = eg.node.NewCtx(k)
	}
	return &team{root: root, ctxs: ctxs}
}

// soloTeam is root working alone.
func (eg *Graph) soloTeam(root *cluster.Ctx) *team {
	return &team{root: root, ctxs: []*cluster.Ctx{root}}
}

// run calls fn on every thread and waits for all of them.
func (tm *team) run(fn func(ctx *cluster.Ctx, k int)) {
	start := tm.root.Clock.Now()
	for _, ctx := range tm.ctxs {
		ctx.Clock.AdvanceTo(start)
	}
	if len(tm.ctxs) == 1 {
		fn(tm.ctxs[0], 0)
	} else {
		var wg sync.WaitGroup
		for k, ctx := range tm.ctxs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fn(ctx, k)
			}()
		}
		wg.Wait()
	}
	for _, ctx := range tm.ctxs {
		tm.root.Clock.AdvanceTo(ctx.Clock.Now())
	}
}

// vertices runs fn on every thread over its share of [lo, hi).
func (tm *team) vertices(lo, hi int64, fn func(ctx *cluster.Ctx, k int, lo, hi int64)) {
	t := int64(len(tm.ctxs))
	tm.run(func(ctx *cluster.Ctx, k int) {
		fn(ctx, k, lo+(hi-lo)*int64(k)/t, lo+(hi-lo)*int64(k+1)/t)
	})
}
