package core

import (
	"testing"

	"darray/internal/cluster"
	"darray/internal/trace"
	"darray/internal/vtime"
)

// The single-chunk range path is what a record-granular caller pays
// twice per operation, so its cost is pinned from every side: the heap
// (nothing), the virtual clock (one fast-path acquisition at a Get hit's
// price plus the copy), the op and hit counters, and the trace (no
// unattributed time under the root).

func TestSingleChunkRangeAllocatesNothing(t *testing.T) {
	skipIfNotMeasurable(t)
	c := tc(t, 2)
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*4*64)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		if n.ID() == 0 {
			buf := make([]uint64, 17)
			a.GetRange(ctx, 64+5, buf) // resident: node 0 is the home
			if got := testing.AllocsPerRun(200, func() { a.GetRange(ctx, 64+5, buf) }); got != 0 {
				t.Errorf("single-chunk GetRange allocates %.2f per call, want 0", got)
			}
			if got := testing.AllocsPerRun(200, func() { a.SetRange(ctx, 64+5, buf) }); got != 0 {
				t.Errorf("single-chunk SetRange allocates %.2f per call, want 0", got)
			}
			// A cached remote chunk is no different once resident.
			const remote = 4*64 + 9
			a.SetRange(ctx, remote, buf)
			if got := testing.AllocsPerRun(200, func() {
				a.GetRange(ctx, remote, buf)
				a.SetRange(ctx, remote, buf)
			}); got != 0 {
				t.Errorf("GetRange+SetRange on a cached remote chunk allocate %.2f per pair, want 0", got)
			}
		}
		c.Barrier(ctx)
	})
}

func TestPinAcquisitionIsChargedAsAGetHit(t *testing.T) {
	m := vtime.Default()
	c := tc(t, 1, func(cfg *cluster.Config) { cfg.Model = m })
	c.Run(func(n *cluster.Node) {
		a := New(n, 4*64)
		ctx := n.NewCtx(0)
		buf := make([]uint64, 17)
		step := func(what string, want int64, fn func()) {
			t.Helper()
			ops, hits, vt := ctx.Stats.Ops, ctx.Stats.Hits, ctx.Clock.Now()
			fn()
			if got := ctx.Clock.Now() - vt; got != want {
				t.Errorf("%s advanced the clock by %d, want %d", what, got, want)
			}
			if ctx.Stats.Ops-ops != 1 || ctx.Stats.Hits-hits != 1 {
				t.Errorf("%s counted %d ops and %d hits, want 1 and 1", what, ctx.Stats.Ops-ops, ctx.Stats.Hits-hits)
			}
		}
		hitCopy := m.GetHit + m.CopyCost(8*len(buf))
		step("GetRange", hitCopy, func() { a.GetRange(ctx, 70, buf) })
		step("SetRange", hitCopy, func() { a.SetRange(ctx, 70, buf) })
		var p *Pin
		step("PinRead", m.GetHit, func() { p = a.PinRead(ctx, 70) })
		p.Unpin(ctx)
		step("PinWrite", m.GetHit, func() { p = a.PinWrite(ctx, 70) })
		p.Unpin(ctx)

		// Two chunk pieces are two acquisitions, on the serial path as in
		// the pipeline (this cluster's default depth pipelines the range).
		vt, ops := ctx.Clock.Now(), ctx.Stats.Ops
		a.GetRange(ctx, 64-8, buf)
		if got, want := ctx.Clock.Now()-vt, 2*m.GetHit+m.CopyCost(8*8)+m.CopyCost(8*9); got != want {
			t.Errorf("GetRange over a chunk boundary advanced the clock by %d, want %d", got, want)
		}
		if got := ctx.Stats.Ops - ops; got != 2 {
			t.Errorf("GetRange over a chunk boundary counted %d ops, want 2", got)
		}
	})
}

// A pin served by the fast path is a cache hit like any other: with
// telemetry on, hits (not just the finer pin/fast) count it, so a
// workload that moves from Get to GetRange keeps its hit ratio.
func TestPinHitCountsAsCacheHit(t *testing.T) {
	c := tc(t, 1, func(cfg *cluster.Config) { cfg.Metrics = true })
	c.Run(func(n *cluster.Node) {
		a := New(n, 4*64)
		ctx := n.NewCtx(0)
		buf := make([]uint64, 8)
		hits, fast := a.Metrics.Hits.Load(), a.Metrics.PinFast.Load()
		a.GetRange(ctx, 3, buf)
		a.SetRange(ctx, 3, buf)
		a.PinRead(ctx, 3).Unpin(ctx)
		if got := a.Metrics.Hits.Load() - hits; got != 3 {
			t.Errorf("core/cache/hits moved by %d over three fast pin acquisitions, want 3", got)
		}
		if got := a.Metrics.PinFast.Load() - fast; got != 3 {
			t.Errorf("core/pin/fast moved by %d, want 3", got)
		}
	})
}

// Every virtual nanosecond of a sampled single-chunk range op lies under
// a child span: the acquisition charge has its own, so the critical path
// of a pure hit has no hole in front of the copy.
func TestSingleChunkRangeTraceCoverage(t *testing.T) {
	trc := trace.New(0)
	trc.Enable(1)
	c := tc(t, 1, func(cfg *cluster.Config) { cfg.Model, cfg.Tracer = vtime.Default(), trc })
	c.Run(func(n *cluster.Node) {
		a := New(n, 4*64)
		ctx := n.NewCtx(0)
		buf := make([]uint64, 17)
		a.GetRange(ctx, 70, buf)
		a.SetRange(ctx, 70, buf)
	})
	spans := trc.Spans()
	roots := trace.Roots(spans)
	if len(roots) != 2 {
		t.Fatalf("%d root spans, want GetRange and SetRange", len(roots))
	}
	for _, root := range roots {
		cp := trace.CriticalPath(spans, root)
		if root.Dur() <= 0 || cp.Unattributed != 0 {
			t.Errorf("%s: %d of %d vt-ns unattributed (%d steps)", root.Name, cp.Unattributed, root.Dur(), len(cp.Steps))
		}
	}
	if d := trc.Dropped(); d != 0 {
		t.Errorf("tracer dropped %d spans", d)
	}
}
