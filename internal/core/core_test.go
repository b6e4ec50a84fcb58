package core

import (
	"sync/atomic"
	"testing"

	"darray/internal/cluster"
)

// tc builds a small test cluster; callers must Close it.
func tc(t *testing.T, nodes int, opts ...func(*cluster.Config)) *cluster.Cluster {
	t.Helper()
	cfg := cluster.Config{Nodes: nodes, ChunkWords: 64, CacheChunks: 64}
	for _, o := range opts {
		o(&cfg)
	}
	c := cluster.New(cfg)
	t.Cleanup(c.Close)
	return c
}

func TestSingleNodeGetSet(t *testing.T) {
	c := tc(t, 1)
	c.Run(func(n *cluster.Node) {
		a := New(n, 1000)
		ctx := n.NewCtx(0)
		for i := int64(0); i < 1000; i++ {
			a.Set(ctx, i, uint64(i*3))
		}
		for i := int64(0); i < 1000; i++ {
			if got := a.Get(ctx, i); got != uint64(i*3) {
				t.Errorf("a[%d] = %d, want %d", i, got, i*3)
				return
			}
		}
		if ctx.Stats.Misses != 0 {
			t.Errorf("single-node access took %d slow paths", ctx.Stats.Misses)
		}
	})
}

func TestBoundsPanic(t *testing.T) {
	c := tc(t, 1)
	c.Run(func(n *cluster.Node) {
		a := New(n, 10)
		ctx := n.NewCtx(0)
		defer func() {
			if recover() == nil {
				t.Error("expected panic for out-of-range index")
			}
		}()
		a.Get(ctx, 10)
	})
}

// TestRangeBoundsPanic: a range that stays inside the last chunk but runs
// past the array's end must panic like an out-of-range index — that
// chunk's storage is padded, so the copy alone would not notice.
func TestRangeBoundsPanic(t *testing.T) {
	c := tc(t, 1)
	c.Run(func(n *cluster.Node) {
		a := New(n, 100) // chunk 1 holds elements 64..99 of a 64-word chunk
		ctx := n.NewCtx(0)
		defer func() {
			if recover() == nil {
				t.Error("expected panic for a range past the end of the array")
			}
		}()
		a.GetRange(ctx, 90, make([]uint64, 20))
	})
}

func TestPartitioning(t *testing.T) {
	c := tc(t, 4)
	c.Run(func(n *cluster.Node) {
		a := New(n, 4*64*3) // 12 chunks over 4 nodes
		lo, hi := a.LocalRange()
		if hi-lo != 3*64 {
			t.Errorf("node %d range [%d,%d): want 192 elements", n.ID(), lo, hi)
		}
		if h := a.HomeOf(lo); h != n.ID() {
			t.Errorf("HomeOf(%d) = %d, want %d", lo, h, n.ID())
		}
	})
}

func TestCustomPartition(t *testing.T) {
	c := tc(t, 2)
	c.Run(func(n *cluster.Node) {
		// All 4 chunks on node 1: node 0 gets offset range [0,0).
		a := New(n, 4*64, Options{PartitionOffset: []int64{0, 0}})
		lo, hi := a.LocalRange()
		if n.ID() == 0 && hi != lo {
			t.Errorf("node 0 should own nothing, got [%d,%d)", lo, hi)
		}
		if n.ID() == 1 && hi-lo != 4*64 {
			t.Errorf("node 1 should own everything, got [%d,%d)", lo, hi)
		}
	})
}

func TestRemoteReadCaches(t *testing.T) {
	c := tc(t, 2)
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64)
		ctx := n.NewCtx(0)
		if n.ID() == 0 {
			for i := int64(0); i < 64; i++ {
				a.Set(ctx, i, uint64(100+i))
			}
		}
		c.Barrier(ctx)
		if n.ID() == 1 {
			if got := a.Get(ctx, 5); got != 105 {
				t.Errorf("remote read = %d, want 105", got)
			}
			miss := ctx.Stats.Misses
			// Subsequent reads of the same chunk hit the cache.
			for i := int64(0); i < 64; i++ {
				if got := a.Get(ctx, i); got != uint64(100+i) {
					t.Errorf("cached read a[%d] = %d", i, got)
					return
				}
			}
			if ctx.Stats.Misses != miss {
				t.Errorf("cached reads missed %d times", ctx.Stats.Misses-miss)
			}
		}
		c.Barrier(ctx)
	})
}

func TestRemoteWriteThenHomeRead(t *testing.T) {
	c := tc(t, 2)
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64)
		ctx := n.NewCtx(0)
		if n.ID() == 1 {
			a.Set(ctx, 3, 777) // chunk 0 homed on node 0 → Dirty at node 1
		}
		c.Barrier(ctx)
		if n.ID() == 0 {
			if got := a.Get(ctx, 3); got != 777 {
				t.Errorf("home read after remote write = %d, want 777", got)
			}
		}
		c.Barrier(ctx)
	})
}

func TestWriteInvalidatesSharers(t *testing.T) {
	c := tc(t, 3)
	c.Run(func(n *cluster.Node) {
		a := New(n, 3*64)
		ctx := n.NewCtx(0)
		// Everyone reads chunk 0 (homed on node 0) → Shared everywhere.
		_ = a.Get(ctx, 0)
		c.Barrier(ctx)
		if n.ID() == 2 {
			a.Set(ctx, 0, 42) // must invalidate nodes 1 and home copy
		}
		c.Barrier(ctx)
		if got := a.Get(ctx, 0); got != 42 {
			t.Errorf("node %d read %d after invalidation, want 42", n.ID(), got)
		}
		c.Barrier(ctx)
	})
}

func TestDirtyReadDowngradesToShared(t *testing.T) {
	c := tc(t, 3)
	c.Run(func(n *cluster.Node) {
		a := New(n, 3*64)
		ctx := n.NewCtx(0)
		if n.ID() == 1 {
			a.Set(ctx, 0, 9) // Dirty at node 1
		}
		c.Barrier(ctx)
		if n.ID() == 2 {
			if got := a.Get(ctx, 0); got != 9 {
				t.Errorf("reader got %d, want 9", got)
			}
		}
		c.Barrier(ctx)
		// Node 1 should still be able to read its (now Shared) copy fast.
		if n.ID() == 1 {
			before := ctx.Stats.Misses
			if got := a.Get(ctx, 0); got != 9 {
				t.Errorf("former owner read %d, want 9", got)
			}
			if ctx.Stats.Misses != before {
				t.Error("former owner lost its Shared copy after downgrade")
			}
		}
		c.Barrier(ctx)
	})
}

func TestOperateAddAcrossNodes(t *testing.T) {
	const nodes, per = 4, 250
	c := tc(t, nodes)
	c.Run(func(n *cluster.Node) {
		a := New(n, 3*64)
		add := a.RegisterOp(OpAddU64)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		for k := 0; k < per; k++ {
			a.Apply(ctx, add, 7, 1) // all nodes pound one element
		}
		c.Barrier(ctx)
		if got := a.Get(ctx, 7); got != nodes*per {
			t.Errorf("node %d: sum = %d, want %d", n.ID(), got, nodes*per)
		}
		c.Barrier(ctx)
	})
}

func TestOperateMin(t *testing.T) {
	c := tc(t, 3)
	c.Run(func(n *cluster.Node) {
		a := New(n, 3*64)
		min := a.RegisterOp(OpMinU64)
		ctx := n.NewCtx(0)
		if a.HomeOf(10) == n.ID() {
			a.Set(ctx, 10, 1000)
		}
		c.Barrier(ctx)
		a.Apply(ctx, min, 10, uint64(100-n.ID())) // 100, 99, 98
		c.Barrier(ctx)
		if got := a.Get(ctx, 10); got != 98 {
			t.Errorf("min = %d, want 98", got)
		}
		c.Barrier(ctx)
	})
}

func TestOperateThenWriteThenOperate(t *testing.T) {
	c := tc(t, 2)
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64)
		add := a.RegisterOp(OpAddU64)
		ctx := n.NewCtx(0)
		a.Apply(ctx, add, 0, 5)
		c.Barrier(ctx)
		if n.ID() == 1 {
			if got := a.Get(ctx, 0); got != 10 {
				t.Errorf("after applies: %d, want 10", got)
			}
			a.Set(ctx, 0, 1)
		}
		c.Barrier(ctx)
		a.Apply(ctx, add, 0, 2)
		c.Barrier(ctx)
		if got := a.Get(ctx, 0); got != 5 {
			t.Errorf("final = %d, want 5 (1 + 2 + 2)", got)
		}
		c.Barrier(ctx)
	})
}

func TestTwoOperatorsCollapse(t *testing.T) {
	c := tc(t, 2)
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64)
		add := a.RegisterOp(OpAddU64)
		max := a.RegisterOp(OpMaxU64)
		ctx := n.NewCtx(0)
		a.Apply(ctx, add, 1, 10)
		c.Barrier(ctx)
		// Switching operator forces an Operated(add) → Operated(max)
		// collapse through Unshared.
		a.Apply(ctx, max, 1, uint64(5+n.ID()*20)) // 5 and 25
		c.Barrier(ctx)
		if got := a.Get(ctx, 1); got != 25 {
			t.Errorf("max(add-result 20, 5, 25) = %d, want 25", got)
		}
		c.Barrier(ctx)
	})
}

func TestLocksMutualExclusion(t *testing.T) {
	const nodes, iters = 3, 50
	c := tc(t, nodes)
	var inCrit atomic.Int32
	c.Run(func(n *cluster.Node) {
		a := New(n, 3*64)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		for k := 0; k < iters; k++ {
			a.WLock(ctx, 5)
			if inCrit.Add(1) != 1 {
				t.Error("two holders inside WLock critical section")
			}
			v := a.Get(ctx, 5)
			a.Set(ctx, 5, v+1)
			inCrit.Add(-1)
			a.Unlock(ctx, 5)
		}
		c.Barrier(ctx)
		if got := a.Get(ctx, 5); got != nodes*iters {
			t.Errorf("locked counter = %d, want %d", got, nodes*iters)
		}
		c.Barrier(ctx)
	})
}

func TestRLockSharedWLockExclusive(t *testing.T) {
	c := tc(t, 2)
	var readers atomic.Int32
	var writerIn atomic.Bool
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		for k := 0; k < 30; k++ {
			a.RLock(ctx, 0)
			readers.Add(1)
			if writerIn.Load() {
				t.Error("reader overlapped writer")
			}
			readers.Add(-1)
			a.Unlock(ctx, 0)

			a.WLock(ctx, 0)
			writerIn.Store(true)
			if readers.Load() != 0 {
				t.Error("writer overlapped readers")
			}
			writerIn.Store(false)
			a.Unlock(ctx, 0)
		}
		c.Barrier(ctx)
	})
}

func TestPinReadFastAccess(t *testing.T) {
	c := tc(t, 2)
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64)
		ctx := n.NewCtx(0)
		if n.ID() == 0 {
			for i := int64(0); i < 64; i++ {
				a.Set(ctx, i, uint64(i))
			}
		}
		c.Barrier(ctx)
		if n.ID() == 1 {
			p := a.PinRead(ctx, 0)
			if p.First() != 0 || p.Limit() != 64 {
				t.Errorf("pin covers [%d,%d), want [0,64)", p.First(), p.Limit())
			}
			var sum uint64
			for i := p.First(); i < p.Limit(); i++ {
				sum += p.Get(ctx, i)
			}
			if sum != 64*63/2 {
				t.Errorf("pinned sum = %d, want %d", sum, 64*63/2)
			}
			p.Unpin(ctx)
		}
		c.Barrier(ctx)
	})
}

func TestPinWriteBlocksRemoteUntilUnpin(t *testing.T) {
	c := tc(t, 2)
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64)
		ctx := n.NewCtx(0)
		if n.ID() == 0 {
			p := a.PinWrite(ctx, 0)
			p.Set(ctx, 0, 11)
			c.Barrier(ctx) // [1] pinned
			// Hold the pin briefly while node 1 requests the chunk; the
			// protocol must wait for the unpin, not break the pin.
			p.Set(ctx, 1, 22)
			p.Unpin(ctx)
			c.Barrier(ctx) // [2]
		} else {
			c.Barrier(ctx) // [1]
			if got := a.Get(ctx, 0); got != 11 {
				t.Errorf("read under pin contention = %d, want 11", got)
			}
			if got := a.Get(ctx, 1); got != 22 {
				t.Errorf("read missed pinned write: %d, want 22", got)
			}
			c.Barrier(ctx) // [2]
		}
	})
}

func TestPinOperate(t *testing.T) {
	c := tc(t, 2)
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64)
		add := a.RegisterOp(OpAddU64)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		p := a.PinOperate(ctx, 0, add)
		for k := 0; k < 100; k++ {
			p.Apply(ctx, 3, 1)
		}
		p.Unpin(ctx)
		c.Barrier(ctx)
		if got := a.Get(ctx, 3); got != 200 {
			t.Errorf("pinned applies = %d, want 200", got)
		}
		c.Barrier(ctx)
	})
}

func TestEvictionUnderSmallCache(t *testing.T) {
	// Cache of 8 lines per runtime; scan a remote region of 64 chunks so
	// eviction must run. Shared lines evict silently and re-fetch.
	c := tc(t, 2, func(cfg *cluster.Config) { cfg.CacheChunks = 8 })
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64*64)
		ctx := n.NewCtx(0)
		lo, hi := a.LocalRange()
		for i := lo; i < hi; i++ {
			a.Set(ctx, i, uint64(i))
		}
		c.Barrier(ctx)
		// Read the other node's whole partition, twice.
		olo, ohi := int64(0), int64(0)
		if n.ID() == 0 {
			olo, ohi = hi, a.Len()
		} else {
			olo, ohi = 0, lo
		}
		for pass := 0; pass < 2; pass++ {
			for i := olo; i < ohi; i++ {
				if got := a.Get(ctx, i); got != uint64(i) {
					t.Errorf("pass %d: a[%d] = %d", pass, i, got)
					return
				}
			}
		}
		c.Barrier(ctx)
		if a.Metrics.Evictions.Load() == 0 {
			t.Error("no evictions despite tiny cache")
		}
	})
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	c := tc(t, 2, func(cfg *cluster.Config) { cfg.CacheChunks = 8 })
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64*64)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		if n.ID() == 1 {
			// Write a long remote stretch: dirty lines must be written
			// back on eviction, not lost.
			for i := int64(0); i < 40*64; i++ {
				a.Set(ctx, i, uint64(i+7))
			}
		}
		c.Barrier(ctx)
		if n.ID() == 0 {
			for i := int64(0); i < 40*64; i++ {
				if got := a.Get(ctx, i); got != uint64(i+7) {
					t.Fatalf("lost dirty data at %d: got %d", i, got)
				}
			}
		}
		c.Barrier(ctx)
	})
}

func TestF64View(t *testing.T) {
	c := tc(t, 2)
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64)
		f := a.AsF64()
		add := a.RegisterOp(OpAddF64)
		ctx := n.NewCtx(0)
		if n.ID() == 0 {
			f.Set(ctx, 0, 1.5)
		}
		c.Barrier(ctx)
		f.Apply(ctx, add, 0, 0.25)
		c.Barrier(ctx)
		if got := f.Get(ctx, 0); got != 2.0 {
			t.Errorf("f64 = %v, want 2.0", got)
		}
		c.Barrier(ctx)
	})
}

func TestStateTable(t *testing.T) {
	// Paper Table 1: permissions per state at home vs others.
	c := tc(t, 2)
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64)
		ctx := n.NewCtx(0)
		d0 := &a.dents[0] // homed on node 0
		if n.ID() == 0 {
			// Unshared: home has RW.
			if statePerm(d0.state.Load()) != permRW {
				t.Error("Unshared: home should hold RW")
			}
		}
		c.Barrier(ctx)
		_ = a.Get(ctx, 0) // both read → Shared
		c.Barrier(ctx)
		if statePerm(d0.state.Load()) != permRead {
			t.Errorf("Shared: node %d perm = %d, want Read", n.ID(), statePerm(d0.state.Load()))
		}
		c.Barrier(ctx)
		if n.ID() == 1 {
			a.Set(ctx, 0, 1) // → Dirty at node 1
			if statePerm(d0.state.Load()) != permRW {
				t.Error("Dirty: owner should hold RW")
			}
		}
		c.Barrier(ctx)
		if n.ID() == 0 {
			if statePerm(d0.state.Load()) != permInvalid {
				t.Error("Dirty: home should hold no permission")
			}
		}
		c.Barrier(ctx)
	})
}

func TestMultiThreadedSameChunk(t *testing.T) {
	c := tc(t, 2)
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64)
		add := a.RegisterOp(OpAddU64)
		ctx0 := n.NewCtx(0)
		c.Barrier(ctx0)
		n.RunThreads(4, func(ctx *cluster.Ctx) {
			for k := 0; k < 100; k++ {
				a.Apply(ctx, add, 9, 1)
			}
		})
		c.Barrier(ctx0)
		if got := a.Get(ctx0, 9); got != 2*4*100 {
			t.Errorf("concurrent applies = %d, want 800", got)
		}
		c.Barrier(ctx0)
	})
}

func TestRegisterOpIDsStable(t *testing.T) {
	c := tc(t, 3)
	ids := make([][2]OpID, 3)
	c.Run(func(n *cluster.Node) {
		a := New(n, 3*64)
		ids[n.ID()][0] = a.RegisterOp(OpAddU64)
		ids[n.ID()][1] = a.RegisterOp(OpMinU64)
	})
	for i := 1; i < 3; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("operator ids differ across nodes: %v vs %v", ids[i], ids[0])
		}
	}
	if ids[0][0] == ids[0][1] {
		t.Fatal("distinct operators got the same id")
	}
}
