package core

import (
	"slices"
	"sync"
	"testing"

	"darray/internal/cluster"
)

func TestTinyArrayOneElement(t *testing.T) {
	c := tc(t, 3)
	c.Run(func(n *cluster.Node) {
		a := New(n, 1)
		add := a.RegisterOp(OpAddU64)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		a.Apply(ctx, add, 0, 1)
		c.Barrier(ctx)
		if got := a.Get(ctx, 0); got != 3 {
			t.Errorf("single element = %d, want 3", got)
		}
		c.Barrier(ctx)
	})
}

func TestPartialFinalChunk(t *testing.T) {
	c := tc(t, 2)
	c.Run(func(n *cluster.Node) {
		a := New(n, 64+10) // last chunk holds 10 live elements
		ctx := n.NewCtx(0)
		lo, hi := a.LocalRange()
		for i := lo; i < hi; i++ {
			a.Set(ctx, i, uint64(i+1))
		}
		c.Barrier(ctx)
		for i := int64(0); i < a.Len(); i++ {
			if got := a.Get(ctx, i); got != uint64(i+1) {
				t.Errorf("a[%d] = %d", i, got)
				return
			}
		}
		c.Barrier(ctx)
	})
}

func TestSingleRuntimeThread(t *testing.T) {
	c := tc(t, 2, func(cfg *cluster.Config) { cfg.RuntimeThreads = 1 })
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64*4)
		add := a.RegisterOp(OpAddU64)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		for k := 0; k < 300; k++ {
			a.Apply(ctx, add, int64(k)%a.Len(), 1)
		}
		c.Barrier(ctx)
		var sum uint64
		for i := int64(0); i < a.Len(); i++ {
			sum += a.Get(ctx, i)
		}
		if sum != 600 {
			t.Errorf("sum = %d, want 600", sum)
		}
		c.Barrier(ctx)
	})
}

func TestManyRuntimeThreads(t *testing.T) {
	c := tc(t, 2, func(cfg *cluster.Config) { cfg.RuntimeThreads = 5 })
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64*7)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		if n.ID() == 1 {
			for i := int64(0); i < 64*7; i++ {
				a.Set(ctx, i, uint64(i)*3)
			}
		}
		c.Barrier(ctx)
		if n.ID() == 0 {
			for i := int64(0); i < 64*7; i++ {
				if got := a.Get(ctx, i); got != uint64(i)*3 {
					t.Errorf("a[%d] = %d", i, got)
					return
				}
			}
		}
		c.Barrier(ctx)
	})
}

func TestPrefetchDisabled(t *testing.T) {
	c := tc(t, 2, func(cfg *cluster.Config) { cfg.PrefetchAhead = -1 })
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64*8)
		ctx := n.NewCtx(0)
		lo, hi := a.LocalRange()
		for i := lo; i < hi; i++ {
			a.Set(ctx, i, 7)
		}
		c.Barrier(ctx)
		olo, ohi := int64(0), lo
		if n.ID() == 0 {
			olo, ohi = hi, a.Len()
		}
		for i := olo; i < ohi; i++ {
			if a.Get(ctx, i) != 7 {
				t.Errorf("bad read at %d", i)
				return
			}
		}
		c.Barrier(ctx)
		if a.Metrics.Prefetches.Load() != 0 {
			t.Errorf("prefetches issued despite being disabled: %d",
				a.Metrics.Prefetches.Load())
		}
	})
}

func TestConcurrentPinsOnSameChunk(t *testing.T) {
	c := tc(t, 2)
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64)
		add := a.RegisterOp(OpAddU64)
		root := n.NewCtx(0)
		c.Barrier(root)
		n.RunThreads(4, func(ctx *cluster.Ctx) {
			p := a.PinOperate(ctx, 0, add)
			for k := 0; k < 200; k++ {
				p.Apply(ctx, 5, 1)
			}
			p.Unpin(ctx)
		})
		c.Barrier(root)
		if got := a.Get(root, 5); got != 2*4*200 {
			t.Errorf("sum = %d, want 1600", got)
		}
		c.Barrier(root)
	})
}

func TestWriterNotStarvedByReaders(t *testing.T) {
	c := tc(t, 2)
	c.Run(func(n *cluster.Node) {
		a := New(n, 64)
		root := n.NewCtx(0)
		c.Barrier(root)
		var wg sync.WaitGroup
		if n.ID() == 0 {
			// A stream of readers…
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					ctx := n.NewCtx(tid)
					for k := 0; k < 200; k++ {
						a.RLock(ctx, 3)
						a.Unlock(ctx, 3)
					}
				}(r)
			}
		} else {
			// …must not starve this writer (FIFO queue at the home).
			ctx := n.NewCtx(0)
			for k := 0; k < 50; k++ {
				a.WLock(ctx, 3)
				a.Set(ctx, 3, a.Get(ctx, 3)+1)
				a.Unlock(ctx, 3)
			}
		}
		wg.Wait()
		c.Barrier(root)
		if got := a.Get(root, 3); got != 50 {
			t.Errorf("writer increments = %d, want 50", got)
		}
		c.Barrier(root)
	})
}

func TestDifferentOpsOnDifferentChunks(t *testing.T) {
	c := tc(t, 2)
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64)
		add := a.RegisterOp(OpAddU64)
		max := a.RegisterOp(OpMaxU64)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		a.Apply(ctx, add, 1, 10)              // chunk 0 Operated(add)
		a.Apply(ctx, max, 64, uint64(n.ID())) // chunk 1 Operated(max)
		c.Barrier(ctx)
		if got := a.Get(ctx, 1); got != 20 {
			t.Errorf("add chunk = %d, want 20", got)
		}
		if got := a.Get(ctx, 64); got != 1 {
			t.Errorf("max chunk = %d, want 1", got)
		}
		c.Barrier(ctx)
	})
}

func TestRegisterOpAfterTraffic(t *testing.T) {
	c := tc(t, 2)
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64)
		add := a.RegisterOp(OpAddU64)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		a.Apply(ctx, add, 0, 1)
		c.Barrier(ctx)
		min := a.RegisterOp(OpMinU64) // registered mid-run, collectively
		c.Barrier(ctx)
		a.Apply(ctx, min, 1, uint64(5+n.ID()))
		c.Barrier(ctx)
		if got := a.Get(ctx, 1); got != 0 { // initial 0 < both operands
			t.Errorf("min = %d, want 0", got)
		}
		if got := a.Get(ctx, 0); got != 2 {
			t.Errorf("add = %d, want 2", got)
		}
		c.Barrier(ctx)
	})
}

func TestUnregisteredOpPanics(t *testing.T) {
	c := tc(t, 1)
	c.Run(func(n *cluster.Node) {
		a := New(n, 64)
		ctx := n.NewCtx(0)
		defer func() {
			if recover() == nil {
				t.Error("expected panic for unregistered operator")
			}
		}()
		a.Apply(ctx, OpID(99), 0, 1)
	})
}

func TestLockOnRemoteElementUnderEvictionPressure(t *testing.T) {
	c := tc(t, 2, func(cfg *cluster.Config) { cfg.CacheChunks = 4 })
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64*16)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		// Interleave locked updates with cache-thrashing scans.
		other := (int64(1 - n.ID())) * 64 * 16
		for k := 0; k < 20; k++ {
			a.WLock(ctx, other)
			a.Set(ctx, other, a.Get(ctx, other)+1)
			a.Unlock(ctx, other)
			for i := int64(0); i < 64*8; i++ {
				a.Get(ctx, (other+i)%a.Len())
			}
		}
		c.Barrier(ctx)
		if got := a.Get(ctx, 0); got != 20 {
			t.Errorf("a[0] = %d, want 20", got)
		}
		if got := a.Get(ctx, 64*16); got != 20 {
			t.Errorf("a[1024] = %d, want 20", got)
		}
		c.Barrier(ctx)
	})
}

// Every kind of slow-path request is accounted by one rule. Node 1
// requests chunks homed on node 0, which writes them back between rounds
// so each round misses again: a data, pin, range or shipped request
// counts one miss per chunk on both ctx.Stats and Metrics, a lock-table
// request counts none; none is still in demand when its call returns; and
// every token a request took comes back, so a repeat after warm-up takes
// no new one.
func TestStatsAccounting(t *testing.T) {
	const cw = 64
	type kind struct {
		name   string
		ship   string
		misses int64 // per round
		hits   int64 // per round; 0: not checked
		op     func(a *Array, ctx *cluster.Ctx, add OpID)
	}
	kinds := []kind{
		{"Get", "off", 1, cw, func(a *Array, ctx *cluster.Ctx, _ OpID) {
			for i := int64(0); i < cw; i++ {
				a.Get(ctx, i) // one miss, then every Get hits
			}
		}},
		{"Set", "off", 1, 0, func(a *Array, ctx *cluster.Ctx, _ OpID) { a.Set(ctx, 1, 5) }},
		{"Apply", "off", 1, 0, func(a *Array, ctx *cluster.Ctx, add OpID) { a.Apply(ctx, add, 1, 5) }},
		{"PinRead", "off", 1, 0, func(a *Array, ctx *cluster.Ctx, _ OpID) {
			if p := a.PinRead(ctx, 1); p != nil {
				p.Unpin(ctx)
			}
		}},
		{"GetRange", "off", 2, 0, func(a *Array, ctx *cluster.Ctx, _ OpID) {
			a.GetRange(ctx, 0, make([]uint64, 2*cw))
		}},
		{"ShippedApply", "on", 1, 0, func(a *Array, ctx *cluster.Ctx, add OpID) { a.Apply(ctx, add, 1, 5) }},
		{"ShippedApplyRange", "on", 2, 0, func(a *Array, ctx *cluster.Ctx, add OpID) {
			a.ApplyRange(ctx, add, 0, make([]uint64, 2*cw))
		}},
		{"RLock", "off", 0, 0, func(a *Array, ctx *cluster.Ctx, _ OpID) {
			a.RLock(ctx, 1)
			a.Unlock(ctx, 1)
		}},
		{"WLock", "off", 0, 0, func(a *Array, ctx *cluster.Ctx, _ OpID) {
			a.WLock(ctx, 1)
			a.Unlock(ctx, 1)
		}},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			c := tc(t, 2, withMetrics, func(cfg *cluster.Config) {
				cfg.Ship, cfg.PrefetchAhead = k.ship, -1
			})
			c.Run(func(n *cluster.Node) {
				a := New(n, 4*cw) // chunks 0 and 1 homed on node 0
				add := a.RegisterOp(OpAddU64)
				ctx := n.NewCtx(0)
				for round := 0; round < 2; round++ {
					c.Barrier(ctx)
					if n.ID() == 0 {
						a.Set(ctx, 0, 0)
						a.Set(ctx, cw, 0)
					}
					c.Barrier(ctx)
					if n.ID() != 1 {
						continue
					}
					toks := topTokens(ctx)
					misses, ctxMisses, hits := a.Metrics.Misses.Load(), ctx.Stats.Misses, a.Metrics.Hits.Load()
					k.op(a, ctx, add)
					if got := ctx.Stats.Misses - ctxMisses; got != k.misses {
						t.Errorf("round %d: ctx.Stats.Misses delta = %d, want %d", round, got, k.misses)
					}
					if got := a.Metrics.Misses.Load() - misses; got != k.misses {
						t.Errorf("round %d: Metrics.Misses delta = %d, want %d", round, got, k.misses)
					}
					if got := a.Metrics.Hits.Load() - hits; k.hits != 0 && got != k.hits {
						t.Errorf("round %d: hits delta = %d, want %d", round, got, k.hits)
					}
					if d := ctx.DemandInflight(); d != 0 {
						t.Errorf("round %d: %d requests still in demand", round, d)
					}
					if after := topTokens(ctx); round > 0 && !sameTokens(after, toks) {
						t.Errorf("repeat took a token it did not return: top of the freelist %v, was %v", after, toks)
					}
				}
				c.Barrier(ctx)
			})
		})
	}
}

// topTokens returns the top of ctx's token freelist, as deep as any
// request kind above keeps in flight, and leaves the freelist as it was.
func topTokens(ctx *cluster.Ctx) [4]*cluster.Token {
	var ts [4]*cluster.Token
	for k := range ts {
		ts[k] = ctx.AcquireToken()
	}
	for k := len(ts) - 1; k >= 0; k-- {
		ctx.RecycleToken(ts[k])
	}
	return ts
}

// sameTokens reports whether x and y hold the same tokens in any order.
func sameTokens(x, y [4]*cluster.Token) bool {
	for _, t := range x {
		if !slices.Contains(y[:], t) {
			return false
		}
	}
	return true
}
