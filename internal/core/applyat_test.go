package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"darray/internal/cluster"
	"darray/internal/vtime"
)

// scattered returns k indices into [0, n) drawn from rng, grouped into
// runs of up to eight that share a chunk of cw words, so a sequence
// mixes long runs, single-element runs and revisits of a chunk.
func scattered(rng *rand.Rand, k int, n, cw int64) []int64 {
	idx := make([]int64, 0, k)
	for len(idx) < k {
		ci := rng.Int63n((n + cw - 1) / cw)
		for r := 1 + rng.Intn(8); r > 0 && len(idx) < k; r-- {
			if i := ci*cw + rng.Int63n(cw); i < n {
				idx = append(idx, i)
			}
		}
	}
	return idx
}

// applyAtAgainstApply has every node combine the same scattered operands
// into two arrays, one ApplyAt call on a and one Apply per element on b,
// and fails unless the arrays agree everywhere afterwards.
func applyAtAgainstApply(t *testing.T, c *cluster.Cluster, n int64, op Op, init uint64) {
	t.Helper()
	c.Run(func(node *cluster.Node) {
		a, b := New(node, n), New(node, n)
		ida, idb := a.RegisterOp(op), b.RegisterOp(op)
		ctx := node.NewCtx(0)
		a.Fill(ctx, init)
		b.Fill(ctx, init)
		c.Barrier(ctx)
		rng := rand.New(rand.NewSource(int64(node.ID()) + 7))
		idx := scattered(rng, 600, n, a.ChunkWords())
		src := make([]uint64, len(idx))
		for k := range src {
			src[k] = uint64(rng.Intn(1000))
		}
		a.ApplyAt(ctx, ida, idx, src)
		for k, i := range idx {
			b.Apply(ctx, idb, i, src[k])
		}
		c.Barrier(ctx)
		if node.ID() == 0 {
			for i := int64(0); i < n; i++ {
				if x, y := a.Get(ctx, i), b.Get(ctx, i); x != y {
					t.Errorf("element %d: ApplyAt gave %d, Apply %d", i, x, y)
					break
				}
			}
		}
		c.Barrier(ctx)
	})
}

func TestApplyAtMatchesApply(t *testing.T) {
	for _, nodes := range []int{2, 3} {
		for _, tcase := range []struct {
			name string
			op   Op
			init uint64
		}{{"add", OpAddU64, 0}, {"min", OpMinU64, ^uint64(0)}} {
			t.Run(fmt.Sprintf("%s_n%d", tcase.name, nodes), func(t *testing.T) {
				c := tc(t, nodes)
				applyAtAgainstApply(t, c, int64(nodes)*4*64-5, tcase.op, tcase.init)
			})
		}
	}
}

// Under ship=on every run on a chunk homed elsewhere ships element by
// element; the combined values are the same.
func TestApplyAtShipOnMatchesApply(t *testing.T) {
	c := tc(t, 3, func(cfg *cluster.Config) { cfg.Ship, cfg.Model = "on", vtime.Default() })
	applyAtAgainstApply(t, c, 3*4*64, OpAddU64, 0)
}

func TestApplyAtAllocatesNothing(t *testing.T) {
	skipIfNotMeasurable(t)
	c := tc(t, 2)
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*4*64)
		add := a.RegisterOp(OpAddU64)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		if n.ID() == 0 {
			idx := scattered(rand.New(rand.NewSource(1)), 300, 4*64, 64) // node 0's chunks
			src := make([]uint64, len(idx))
			if got := testing.AllocsPerRun(100, func() { a.ApplyAt(ctx, add, idx, src) }); got != 0 {
				t.Errorf("ApplyAt on resident chunks allocates %.2f per call, want 0", got)
			}
		}
		c.Barrier(ctx)
	})
}

// On one node every run is a home hit: a run costs one acquisition at a
// Get hit's price, an element the pinned CAS. Combines count elements,
// hits count acquisitions.
func TestApplyAtIsChargedPerRun(t *testing.T) {
	m := vtime.Default()
	c := tc(t, 1, func(cfg *cluster.Config) { cfg.Model, cfg.Metrics = m, true })
	c.Run(func(n *cluster.Node) {
		a := New(n, 8*64)
		add := a.RegisterOp(OpAddU64)
		ctx := n.NewCtx(0)
		idx := scattered(rand.New(rand.NewSource(3)), 500, a.Len(), a.ChunkWords())
		runs := int64(1)
		for k := 1; k < len(idx); k++ {
			if idx[k]/64 != idx[k-1]/64 {
				runs++
			}
		}
		src := make([]uint64, len(idx))
		vt, hits, combines := ctx.Clock.Now(), a.Metrics.Hits.Load(), a.Metrics.Combines.Load()
		a.ApplyAt(ctx, add, idx, src)
		want := runs*m.GetHit + int64(len(idx))*(m.PinAccess+m.ApplyHit-m.GetHit)
		if got := ctx.Clock.Now() - vt; got != want {
			t.Errorf("ApplyAt of %d elements in %d runs advanced the clock %d, want %d", len(idx), runs, got, want)
		}
		if got := a.Metrics.Hits.Load() - hits; got != runs {
			t.Errorf("ApplyAt counted %d hits, want one per run (%d)", got, runs)
		}
		if got := a.Metrics.Combines.Load() - combines; got != int64(len(idx)) {
			t.Errorf("ApplyAt counted %d combines, want %d", got, len(idx))
		}
	})
}

func TestApplyAtOutOfRangePanics(t *testing.T) {
	c := tc(t, 1)
	c.Run(func(n *cluster.Node) {
		a := New(n, 100)
		add := a.RegisterOp(OpAddU64)
		ctx := n.NewCtx(0)
		for _, bad := range []int64{-1, 100} {
			func() {
				defer func() {
					if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "out of range") {
						t.Errorf("ApplyAt at %d: recovered %v, want an out-of-range panic", bad, r)
					}
				}()
				a.ApplyAt(ctx, add, []int64{3, bad}, []uint64{1, 1})
			}()
		}
	})
}

// Pin.Apply combines only through a PinOperate: a PinWrite on the home,
// where an unpinned Apply would combine directly, refuses.
func TestPinApplyNeedsPinOperate(t *testing.T) {
	c := tc(t, 1)
	c.Run(func(n *cluster.Node) {
		a := New(n, 64)
		ctx := n.NewCtx(0)
		p := a.PinWrite(ctx, 0)
		defer p.Unpin(ctx)
		defer func() {
			if r := recover(); fmt.Sprint(r) != "core: Apply through a pin that was not PinOperate" {
				t.Errorf("Apply through a PinWrite recovered %v", r)
			}
		}()
		p.Apply(ctx, 0, 1)
	})
}
