package core

import (
	"testing"
	"testing/quick"

	"darray/internal/cluster"
)

func TestGetSetRange(t *testing.T) {
	c := tc(t, 2)
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64)
		ctx := n.NewCtx(0)
		if n.ID() == 0 {
			src := make([]uint64, 100)
			for i := range src {
				src[i] = uint64(1000 + i)
			}
			a.SetRange(ctx, 10, src) // spans chunk 0 into chunk 1 (remote)
		}
		c.Barrier(ctx)
		if n.ID() == 1 {
			dst := make([]uint64, 100)
			a.GetRange(ctx, 10, dst)
			for i, v := range dst {
				if v != uint64(1000+i) {
					t.Errorf("dst[%d] = %d, want %d", i, v, 1000+i)
					return
				}
			}
		}
		c.Barrier(ctx)
	})
}

func TestApplyRangeAcrossNodes(t *testing.T) {
	c := tc(t, 3)
	c.Run(func(n *cluster.Node) {
		a := New(n, 3*64)
		add := a.RegisterOp(OpAddU64)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		src := make([]uint64, 150)
		for i := range src {
			src[i] = uint64(i)
		}
		a.ApplyRange(ctx, add, 20, src)
		c.Barrier(ctx)
		for i := int64(0); i < 150; i++ {
			if got := a.Get(ctx, 20+i); got != 3*uint64(i) {
				t.Errorf("a[%d] = %d, want %d", 20+i, got, 3*i)
				return
			}
		}
		c.Barrier(ctx)
	})
}

func TestReduce(t *testing.T) {
	c := tc(t, 2)
	c.Run(func(n *cluster.Node) {
		a := New(n, 130) // partial final chunk
		add := a.RegisterOp(OpAddU64)
		max := a.RegisterOp(OpMaxU64)
		ctx := n.NewCtx(0)
		lo, hi := a.LocalRange()
		for i := lo; i < hi; i++ {
			a.Set(ctx, i, uint64(i))
		}
		c.Barrier(ctx)
		if got := a.Reduce(ctx, add); got != 130*129/2 {
			t.Errorf("sum = %d, want %d", got, 130*129/2)
		}
		if got := a.Reduce(ctx, max); got != 129 {
			t.Errorf("max = %d, want 129", got)
		}
		c.Barrier(ctx)
	})
}

func TestBitwiseOps(t *testing.T) {
	c := tc(t, 2)
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64)
		or := a.RegisterOp(OpOrU64)
		and := a.RegisterOp(OpAndU64)
		xor := a.RegisterOp(OpXorU64)
		ctx := n.NewCtx(0)
		if a.HomeOf(1) == n.ID() {
			a.Set(ctx, 1, 0xFF)
		}
		c.Barrier(ctx)
		a.Apply(ctx, or, 0, uint64(1)<<uint(n.ID()))
		a.Apply(ctx, and, 1, 0xF0|uint64(n.ID()))
		a.Apply(ctx, xor, 2, 0b1010)
		c.Barrier(ctx)
		if got := a.Get(ctx, 0); got != 0b11 {
			t.Errorf("or result = %b, want 11", got)
		}
		if got := a.Get(ctx, 1); got != 0xF0 {
			t.Errorf("and result = %x, want f0", got)
		}
		if got := a.Get(ctx, 2); got != 0 { // xor twice cancels
			t.Errorf("xor result = %b, want 0", got)
		}
		c.Barrier(ctx)
	})
}

// Property: SetRange+GetRange round-trips arbitrary spans.
func TestRangeRoundTripQuick(t *testing.T) {
	c := tc(t, 2)
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		if n.ID() == 0 {
			f := func(start uint8, vals []uint64) bool {
				i := int64(start) % 64
				if len(vals) > 60 {
					vals = vals[:60]
				}
				if len(vals) == 0 {
					return true
				}
				a.SetRange(ctx, i, vals)
				dst := make([]uint64, len(vals))
				a.GetRange(ctx, i, dst)
				for k := range vals {
					if dst[k] != vals[k] {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
				t.Error(err)
			}
		}
		c.Barrier(ctx)
	})
}

// TestBulkRangeManyChunks streams SetRange/GetRange across 24 chunks and
// two node boundaries, at the default ceilings and with every ceiling at
// one (a window of one chunk, one doorbell per message, no prefetch):
// both spellings must observe the data written.
func TestBulkRangeManyChunks(t *testing.T) {
	for _, off := range []bool{false, true} {
		c := tc(t, 3, func(cfg *cluster.Config) {
			cfg.CacheChunks = 32
			if off {
				cfg.TxBurst, cfg.PipelineDepth, cfg.PrefetchAhead = -1, -1, -1
			}
		})
		c.Run(func(n *cluster.Node) {
			const words = 3 * 64 * 8 // 8 chunks per node
			a := New(n, words)
			ctx := n.NewCtx(0)
			c.Barrier(ctx)
			if n.ID() == 0 {
				src := make([]uint64, words)
				for i := range src {
					src[i] = uint64(7*i + 1)
				}
				a.SetRange(ctx, 0, src) // one call spanning every chunk
			}
			c.Barrier(ctx)
			got := make([]uint64, words)
			a.GetRange(ctx, 0, got)
			for i := range got {
				if got[i] != uint64(7*i+1) {
					t.Errorf("ceilings off=%v, node %d: [%d] = %d, want %d", off, n.ID(), i, got[i], 7*i+1)
					return
				}
			}
			c.Barrier(ctx)
		})
	}
}

// TestApplyRangeManyChunksAllNodes drives a commutative ApplyRange from
// every node over the full 24-chunk array: ownership of every chunk
// migrates while the pipeline keeps several fetches in flight.
func TestApplyRangeManyChunksAllNodes(t *testing.T) {
	c := tc(t, 3, func(cfg *cluster.Config) { cfg.CacheChunks = 32 })
	c.Run(func(n *cluster.Node) {
		const words = 3 * 64 * 8
		a := New(n, words)
		add := a.RegisterOp(OpAddU64)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		vals := make([]uint64, words)
		for i := range vals {
			vals[i] = uint64(i%97 + 1)
		}
		a.ApplyRange(ctx, add, 0, vals)
		c.Barrier(ctx)
		if n.ID() == 0 {
			for i := int64(0); i < words; i++ {
				want := 3 * uint64(i%97+1)
				if got := a.Get(ctx, i); got != want {
					t.Errorf("a[%d] = %d, want %d", i, got, want)
					return
				}
			}
		}
		c.Barrier(ctx)
	})
}

func TestMetricsCounters(t *testing.T) {
	c := tc(t, 2, func(cfg *cluster.Config) { cfg.CacheChunks = 4 })
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64*32)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		// Read far past the cache capacity to force fills and evictions.
		lo, hi := a.LocalRange()
		olo, ohi := int64(0), lo
		if n.ID() == 0 {
			olo, ohi = hi, a.Len()
		}
		for i := olo; i < ohi; i++ {
			a.Get(ctx, i)
		}
		c.Barrier(ctx)
		if a.Metrics.Fills.Load() == 0 {
			t.Error("no fills recorded")
		}
		if a.Metrics.Evictions.Load() == 0 {
			t.Error("no evictions recorded")
		}
		if a.Metrics.Prefetches.Load() == 0 {
			t.Error("no prefetches recorded for a sequential scan")
		}
	})
}
