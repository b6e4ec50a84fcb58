package gam

import (
	"testing"

	"darray/internal/cluster"
	"darray/internal/vtime"
)

func tc(t *testing.T, nodes int) *cluster.Cluster {
	t.Helper()
	c := cluster.New(cluster.Config{Nodes: nodes, ChunkWords: 64, CacheChunks: 64})
	t.Cleanup(c.Close)
	return c
}

func TestGetSetRoundTrip(t *testing.T) {
	c := tc(t, 2)
	c.Run(func(n *cluster.Node) {
		g := New(n, 2*64)
		ctx := n.NewCtx(0)
		if n.ID() == 0 {
			for i := int64(0); i < 64; i++ {
				g.Set(ctx, i, uint64(i)*2)
			}
		}
		c.Barrier(ctx)
		if n.ID() == 1 {
			for i := int64(0); i < 64; i++ {
				if got := g.Get(ctx, i); got != uint64(i)*2 {
					t.Errorf("g[%d] = %d, want %d", i, got, i*2)
					return
				}
			}
		}
		c.Barrier(ctx)
	})
}

func TestAtomicAcrossNodes(t *testing.T) {
	const nodes, iters = 3, 100
	c := tc(t, nodes)
	c.Run(func(n *cluster.Node) {
		g := New(n, 3*64)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		for k := 0; k < iters; k++ {
			g.Atomic(ctx, 5, func(v uint64) uint64 { return v + 1 })
		}
		c.Barrier(ctx)
		if got := g.Get(ctx, 5); got != nodes*iters {
			t.Errorf("atomic counter = %d, want %d", got, nodes*iters)
		}
		c.Barrier(ctx)
	})
}

func TestAtomicConcurrentThreads(t *testing.T) {
	c := tc(t, 2)
	c.Run(func(n *cluster.Node) {
		g := New(n, 2*64)
		root := n.NewCtx(0)
		c.Barrier(root)
		n.RunThreads(4, func(ctx *cluster.Ctx) {
			for k := 0; k < 50; k++ {
				g.Atomic(ctx, 9, func(v uint64) uint64 { return v + 2 })
			}
		})
		c.Barrier(root)
		if got := g.Get(root, 9); got != 2*4*50*2 {
			t.Errorf("counter = %d, want 800", got)
		}
		c.Barrier(root)
	})
}

func TestLocks(t *testing.T) {
	const nodes, iters = 2, 40
	c := tc(t, nodes)
	c.Run(func(n *cluster.Node) {
		g := New(n, 2*64)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		for k := 0; k < iters; k++ {
			g.WLock(ctx, 3)
			g.Set(ctx, 3, g.Get(ctx, 3)+1)
			g.Unlock(ctx, 3)
		}
		c.Barrier(ctx)
		if got := g.Get(ctx, 3); got != nodes*iters {
			t.Errorf("locked counter = %d, want %d", got, nodes*iters)
		}
		c.Barrier(ctx)
	})
}

func TestLocalRange(t *testing.T) {
	c := tc(t, 2)
	c.Run(func(n *cluster.Node) {
		g := New(n, 2*64)
		lo, hi := g.LocalRange()
		if hi-lo != 64 {
			t.Errorf("node %d owns %d elements, want 64", n.ID(), hi-lo)
		}
		if g.HomeOf(lo) != n.ID() {
			t.Errorf("HomeOf(%d) != %d", lo, n.ID())
		}
	})
}

// GetRange/SetRange are the per-word path batched, not a different
// store: the same words land in the same places across a chunk boundary
// (and across nodes), and the lock-based access path is paid once per
// chunk piece — GAM's Read/Write(addr, size) — instead of once per word.
func TestRangeMatchesPerWordAndChargesPerPiece(t *testing.T) {
	m := vtime.Default()
	c := cluster.New(cluster.Config{Nodes: 2, ChunkWords: 64, CacheChunks: 64, Model: m})
	t.Cleanup(c.Close)
	c.Run(func(n *cluster.Node) {
		g := New(n, 2*3*64)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		// [50, 150) covers the tail of chunk 0, all of chunk 1 and the head
		// of chunk 2; node 1 writes it by range, node 0 reads it by word,
		// then the other way round.
		const lo, words = 50, 100
		src := make([]uint64, words)
		for k := range src {
			src[k] = uint64(1000*n.ID() + k + 1)
		}
		if n.ID() == 1 {
			g.SetRange(ctx, lo, src)
		}
		c.Barrier(ctx)
		if n.ID() == 0 {
			for k := int64(0); k < words; k++ {
				if got, want := g.Get(ctx, lo+k), uint64(1000+k+1); got != want {
					t.Fatalf("word %d after SetRange = %d, want %d", lo+k, got, want)
				}
			}
			if g.Get(ctx, lo-1) != 0 || g.Get(ctx, lo+words) != 0 {
				t.Error("SetRange wrote outside its range")
			}
			for k := int64(0); k < words; k++ {
				g.Set(ctx, lo+k, src[k])
			}
		}
		c.Barrier(ctx)
		if n.ID() == 1 {
			dst := make([]uint64, words)
			g.GetRange(ctx, lo, dst)
			for k, got := range dst {
				if want := uint64(k + 1); got != want {
					t.Fatalf("GetRange word %d = %d, want %d", lo+k, got, want)
				}
			}
			// Resident now: the same range through GAM costs exactly the
			// protocol's pieces plus three trips down the access path.
			pieces := []int64{14, 64, 22}
			var inner int64
			for _, p := range pieces {
				inner += m.GetHit + m.CopyCost(int(8*p))
			}
			for name, op := range map[string]func(){
				"GetRange": func() { g.GetRange(ctx, lo, dst) },
				"SetRange": func() { g.SetRange(ctx, lo, dst) },
			} {
				op() // SetRange's first call upgrades the copies to RW
				vt := ctx.Clock.Now()
				op()
				if got, want := ctx.Clock.Now()-vt, inner+int64(len(pieces))*m.GamAccess; got != want {
					t.Errorf("%s over 3 chunk pieces advanced the clock by %d, want %d (3 × GamAccess %d over the protocol's %d)",
						name, got, want, m.GamAccess, inner)
				}
			}
		}
		c.Barrier(ctx)
	})
}
