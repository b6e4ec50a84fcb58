package core

import (
	"runtime"
	"testing"

	"darray/internal/buf"
	"darray/internal/cluster"
)

// skipIfNotMeasurable skips allocation-delta tests in build modes whose
// allocator traffic is not representative of a release build.
func skipIfNotMeasurable(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("allocation measurement needs steady-state rounds")
	}
	if raceEnabled {
		t.Skip("race-detector bookkeeping allocates; Mallocs deltas are not comparable")
	}
	if buf.Debug {
		t.Skip("bufdebug quarantines released buffers; pooling is intentionally defeated")
	}
}

// allocWorkload builds a 2-node cluster and has node 0 repeatedly sweep
// node 1's partition, forcing every access through the cross-node miss
// slow path (CacheChunks is far below the remote partition size, so
// each round re-evicts and re-fetches). It reports heap allocations per
// slow-path miss, measured around the steady-state phase only.
func allocWorkload(t *testing.T, byRange bool) float64 {
	t.Helper()
	cfg := cluster.Config{Nodes: 2, ChunkWords: 64, CacheChunks: 8}
	c := cluster.New(cfg)
	defer c.Close()

	const chunks = 64 // per-node partition, words = 64*64
	words := int64(cfg.ChunkWords) * chunks * int64(cfg.Nodes)
	var allocsPerMiss float64
	c.Run(func(n *cluster.Node) {
		a := New(n, words)
		if n.ID() != 0 {
			return
		}
		ctx := n.NewCtx(0)
		lo := words / 2 // start of node 1's partition
		sweep := func() {
			if byRange {
				dst := make([]uint64, cfg.ChunkWords)
				for i := lo; i < words; i += int64(cfg.ChunkWords) {
					a.GetRange(ctx, i, dst)
				}
				return
			}
			for i := lo; i < words; i += 8 {
				a.Get(ctx, i)
			}
		}
		sweep() // warm up pools and lazily-built state

		var before, after runtime.MemStats
		missBase := ctx.Stats.Misses
		runtime.GC()
		runtime.ReadMemStats(&before)
		for round := 0; round < 8; round++ {
			sweep()
		}
		runtime.ReadMemStats(&after)
		misses := ctx.Stats.Misses - missBase
		if misses == 0 {
			t.Fatal("workload produced no slow-path misses")
		}
		allocsPerMiss = float64(after.Mallocs-before.Mallocs) / float64(misses)
	})
	if err := c.Err(); err != nil {
		t.Fatalf("cluster failed: %v", err)
	}
	return allocsPerMiss
}

// TestPooledAllocsGet bounds what a cross-node Get miss costs the
// allocator. It measures 1.19 allocs/miss; allocating a buffer, a
// message, a waiter and queue nodes per miss instead of recycling them
// measured 15.37 (EXPERIMENTS.md, "Retired ablations").
func TestPooledAllocsGet(t *testing.T) {
	skipIfNotMeasurable(t)
	got := allocWorkload(t, false)
	t.Logf("Get: %.2f allocs/miss", got)
	if got > 1.5 {
		t.Errorf("Get path allocates %.2f/miss, want <= 1.5", got)
	}
}

// TestPooledAllocsGetRange bounds the same for a whole-chunk GetRange
// miss: 2.33 allocs/miss measured, 25.74 without recycling.
func TestPooledAllocsGetRange(t *testing.T) {
	skipIfNotMeasurable(t)
	got := allocWorkload(t, true)
	t.Logf("GetRange: %.2f allocs/miss", got)
	if got > 3.0 {
		t.Errorf("GetRange path allocates %.2f/miss, want <= 3.0", got)
	}
}

// TestPooledAllocsLockSlowPath bounds what a lock operation through the
// table costs the allocator: node 1 takes and drops the write lock of an
// element homed on node 0, so every pair is a lock-req, a grant and an
// unlock. The requester reuses a pooled waiter and its kept closure for
// both calls (it used to build a closure for each); what is left is the
// home's table entry and its queue, made anew for a lock that was idle.
func TestPooledAllocsLockSlowPath(t *testing.T) {
	skipIfNotMeasurable(t)
	c := cluster.New(cluster.Config{Nodes: 2, ChunkWords: 64, CacheChunks: 8})
	defer c.Close()
	const pairs = 2000
	var perPair float64
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		if n.ID() == 1 {
			pair := func() {
				a.WLock(ctx, 3)
				a.Unlock(ctx, 3)
			}
			for k := 0; k < 100; k++ {
				pair() // warm up the pools
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for k := 0; k < pairs; k++ {
				pair()
			}
			runtime.ReadMemStats(&after)
			perPair = float64(after.Mallocs-before.Mallocs) / pairs
		}
		c.Barrier(ctx)
	})
	t.Logf("remote WLock+Unlock: %.2f allocs/pair", perPair)
	if perPair > 3.5 {
		t.Errorf("remote WLock+Unlock allocates %.2f/pair, want at most the home's table entry, its queue and a lock-waiter slot (3)", perPair)
	}
}

// A shipped Apply rides a pooled waiter whose kept closure dispatches it
// to shipRequest: nothing per op is allocated to hand it to the runtime.
// What remains is the ship message and its reply on the wire.
func TestPooledAllocsShippedApply(t *testing.T) {
	skipIfNotMeasurable(t)
	c := cluster.New(cluster.Config{Nodes: 2, ChunkWords: 64, CacheChunks: 8, Ship: "on"})
	defer c.Close()
	const ops = 2000
	var perOp float64
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64)
		add := a.RegisterOp(OpAddU64)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		if n.ID() == 1 {
			for k := 0; k < 100; k++ {
				a.Apply(ctx, add, 3, 1) // warm up the pools
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for k := 0; k < ops; k++ {
				a.Apply(ctx, add, 3, 1)
			}
			runtime.ReadMemStats(&after)
			perOp = float64(after.Mallocs-before.Mallocs) / ops
		}
		c.Barrier(ctx)
	})
	t.Logf("remote shipped Apply: %.2f allocs/op", perOp)
	if perOp > 0.5 {
		t.Errorf("remote shipped Apply allocates %.2f/op, want none per op", perOp)
	}
}

// writerFillRounds has node 1 run WLock, Set and Unlock on an element
// homed on node 0 while node 0 writes another element of the same chunk
// between rounds, recalling node 1's Dirty copy: every writer grant then
// finds the chunk absent on node 1. It reports allocations per round and
// the grants that carried the chunk.
func writerFillRounds(t *testing.T, rounds int) (perRound float64, fills int64) {
	t.Helper()
	c := cluster.New(cluster.Config{Nodes: 2, ChunkWords: 64, CacheChunks: 8})
	defer c.Close()
	const warm = 100
	toHome, toWriter := make(chan struct{}), make(chan struct{})
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		switch n.ID() {
		case 0:
			for k := 0; k < warm+rounds; k++ {
				<-toHome
				a.Set(ctx, 4, uint64(k))
				toWriter <- struct{}{}
			}
		case 1:
			round := func(k int) {
				a.WLock(ctx, 3)
				a.Set(ctx, 3, uint64(k))
				a.Unlock(ctx, 3)
				toHome <- struct{}{}
				<-toWriter
			}
			for k := 0; k < warm; k++ {
				round(k) // warm up the pools
			}
			home := &a.Instances()[0].Metrics
			fills = home.LockFills.Load()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for k := 0; k < rounds; k++ {
				round(k)
			}
			runtime.ReadMemStats(&after)
			perRound = float64(after.Mallocs-before.Mallocs) / float64(rounds)
			fills = home.LockFills.Load() - fills
		}
		c.Barrier(ctx)
	})
	return perRound, fills
}

// TestPooledAllocsWriterFill bounds a writer grant that carries its
// chunk: a remote WLock+Set+Unlock whose chunk the home wrote in between,
// so every grant fills. It may cost at most what the lock pair (3.03) and
// the write miss with the home's recall (4.0) cost separately, before
// grants carried data: 7.03 a round. It measures 6.03: the table entry,
// its queue and the lock-waiter slot, and the recall's three
// continuations; the write transaction itself builds none.
func TestPooledAllocsWriterFill(t *testing.T) {
	skipIfNotMeasurable(t)
	const rounds = 2000
	got, fills := writerFillRounds(t, rounds)
	t.Logf("remote WLock+Set+Unlock, filled: %.2f allocs/round, %d fills", got, fills)
	if fills != rounds {
		t.Errorf("%d of %d writer grants carried the chunk, want all", fills, rounds)
	}
	if got > 7.0 {
		t.Errorf("filled writer round allocates %.2f, want at most a lock pair and a write miss (7.0)", got)
	}
}
