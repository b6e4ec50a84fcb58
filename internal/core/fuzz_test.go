package core

import (
	"fmt"
	"sync"
	"testing"

	"darray/internal/cluster"
	"darray/internal/vtime"
)

// TestProtocolFuzzSeeds drives randomized mixed workloads across many
// seeds and cluster shapes, checking an oracle and the cross-node
// coherence invariants after every phase. The long matrix is trimmed
// under -short.
func TestProtocolFuzzSeeds(t *testing.T) {
	type shape struct {
		nodes, runtimes, cache int
	}
	shapes := []shape{
		{2, 2, 8},
		{3, 1, 6},
		{4, 3, 5},
	}
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		shapes = shapes[:1]
		seeds = seeds[:2]
	}
	for _, sh := range shapes {
		for _, seed := range seeds {
			sh, seed := sh, seed
			t.Run(fmt.Sprintf("n%d_r%d_c%d_s%d", sh.nodes, sh.runtimes, sh.cache, seed),
				func(t *testing.T) {
					fuzzOnce(t, sh.nodes, sh.runtimes, sh.cache, seed, "")
				})
		}
	}
}

// TestProtocolFuzzShipModes reruns the mixed-workload fuzz with function
// shipping forced on and in adaptive mode (with a cost model attached so
// the estimator is live and mode flips interleave with in-flight locks,
// pins, and ApplyRange batches). The oracle and invariant checks are
// identical to the baseline matrix — shipping must be invisible.
func TestProtocolFuzzShipModes(t *testing.T) {
	type shape struct {
		nodes, runtimes, cache int
	}
	shapes := []shape{
		{3, 2, 6},
		{4, 2, 5},
	}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		shapes = shapes[:1]
		seeds = seeds[:1]
	}
	for _, ship := range []string{"on", "auto"} {
		for _, sh := range shapes {
			for _, seed := range seeds {
				ship, sh, seed := ship, sh, seed
				t.Run(fmt.Sprintf("%s_n%d_r%d_c%d_s%d", ship, sh.nodes, sh.runtimes, sh.cache, seed),
					func(t *testing.T) {
						fuzzOnce(t, sh.nodes, sh.runtimes, sh.cache, seed, ship)
					})
			}
		}
	}
}

// fuzzOnce runs one randomized workload. ship selects the
// function-shipping mode; non-empty values also attach the cost model so
// the adaptive estimator runs ("" keeps the modelless baseline cluster).
func fuzzOnce(t *testing.T, nodes, runtimes, cache int, seed int64, ship string) {
	cfg := cluster.Config{
		Nodes: nodes, RuntimeThreads: runtimes,
		ChunkWords: 32, CacheChunks: cache,
	}
	if ship != "" {
		cfg.Ship = ship
		cfg.Model = vtime.Default()
	}
	c := cluster.New(cfg)
	defer c.Close()
	const elems = 32 * 6
	// Past the mixed region every node owns a stripe of three chunks that
	// only it writes, with whole-stripe or ragged SetRange (whole chunks
	// go payload-free, partial ends fetch), while any node may read it.
	const stripe = 32 * 3
	total := int64(elems + nodes*stripe)
	oracle := make([]uint64, total)
	var mu sync.Mutex

	c.Run(func(n *cluster.Node) {
		a := New(n, total)
		add := a.RegisterOp(OpAddU64)
		max := a.RegisterOp(OpMaxU64)
		root := n.NewCtx(0)
		rng := root.Rng
		rng.Seed(seed*1000 + int64(n.ID()))
		c.Barrier(root)

		for phase := 0; phase < 3; phase++ {
			for k := 0; k < 250; k++ {
				i := int64(rng.Intn(elems))
				// Unsynchronized Apply deliberately bypasses locks (the
				// whole point of Operate), so mixing it with locked
				// read-modify-write on the same element is an application
				// race. Partition the space: even elements take combining
				// updates, odd elements take locked updates.
				iApply := i &^ 1
				iLock := i | 1
				switch rng.Intn(10) {
				case 0:
					_ = a.Get(root, i)
				case 1:
					a.Apply(root, add, iApply, 1)
					mu.Lock()
					oracle[iApply]++
					mu.Unlock()
				case 2:
					a.WLock(root, iLock)
					a.Set(root, iLock, a.Get(root, iLock)+2)
					a.Unlock(root, iLock)
					mu.Lock()
					oracle[iLock] += 2
					mu.Unlock()
				case 3:
					p := a.PinRead(root, i)
					_ = p.Get(root, i)
					p.Unpin(root)
				case 4:
					// Max with a value never exceeding the additive floor
					// keeps the oracle exact: max(x, 0) == x.
					a.Apply(root, max, iApply, 0)
				case 5:
					a.RLock(root, i)
					_ = a.Get(root, i)
					a.Unlock(root, i)
				case 6:
					// Bulk combining across a chunk boundary. Odd elements
					// are the locked partition, so they get the additive
					// identity — ApplyRange must treat 0 as a no-op there.
					const span = 48
					lo := i % (elems - span)
					vals := make([]uint64, span)
					mu.Lock()
					for j := range vals {
						if (lo+int64(j))&1 == 0 {
							vals[j] = 1
							oracle[lo+int64(j)]++
						}
					}
					mu.Unlock()
					a.ApplyRange(root, add, lo, vals)
				case 7:
					// Overwrite this node's own stripe: all three chunks whole,
					// or starting mid-chunk so the first one is partial.
					lo := int64(elems + n.ID()*stripe)
					vals := make([]uint64, stripe)
					if rng.Intn(2) == 0 {
						off := 1 + rng.Intn(31)
						lo, vals = lo+int64(off), vals[off:]
					}
					mu.Lock()
					for j := range vals {
						vals[j] = uint64(phase)<<40 | uint64(k)<<16 | uint64(j)
						oracle[lo+int64(j)] = vals[j]
					}
					mu.Unlock()
					a.SetRange(root, lo, vals)
				case 8:
					// Read somebody's stripe while its owner may be writing it:
					// leaves Shared copies (also on the owner's next overwrite
					// path) and recalls Dirty ones.
					lo := int64(elems + rng.Intn(nodes)*stripe)
					a.GetRange(root, lo+int64(rng.Intn(32)), make([]uint64, 40))
				case 9:
					// A locked update of an element every node locks: the
					// writer's grant carries the chunk when the lock is free on
					// arrival and is declined when another node holds it, so
					// fills, declines and plain grants interleave with the
					// traffic above.
					h := int64(rng.Intn(3))*64 + 1
					a.WLock(root, h)
					a.Set(root, h, a.Get(root, h)+2)
					a.Unlock(root, h)
					mu.Lock()
					oracle[h] += 2
					mu.Unlock()
				}
			}
			c.Barrier(root)
			for i := int64(0); i < total; i++ {
				got := a.Get(root, i)
				mu.Lock()
				want := oracle[i]
				mu.Unlock()
				if got != want {
					t.Errorf("seed %d phase %d: a[%d] = %d, want %d", seed, phase, i, got, want)
					break
				}
			}
			c.Barrier(root)
			if n.ID() == 0 {
				settle(t, a) // the phase's last unlocks may still be in flight
			}
			c.Barrier(root)
		}
		if n.ID() == 0 {
			var fills int64
			for _, inst := range a.Instances() {
				fills += inst.Metrics.LockFills.Load()
			}
			if fills == 0 {
				t.Error("no writer grant carried its chunk")
			}
		}
	})
}
