package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
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

// repeated returns scattered's indices with each entry repeated one to
// four times in place, so runs hold adjacent repeats of an element.
func repeated(rng *rand.Rand, k int, n, cw int64) []int64 {
	var idx []int64
	for _, i := range scattered(rng, k, n, cw) {
		for r := 1 + rng.Intn(4); r > 0; r-- {
			idx = append(idx, i)
		}
	}
	return idx
}

// applyAtCost is the composed virtual cost of an ApplyAt over idx whose
// every acquisition hits, and its number of runs: per run of one chunk
// of cw words an acquisition (GetHit), per element of the run a pinned
// Apply (PinAccess + ApplyHit - GetHit), and per adjacent repeat of that
// element a fold (PinAccess).
func applyAtCost(m *vtime.Model, idx []int64, cw int64) (vt, runs int64) {
	for k, i := range idx {
		switch {
		case k == 0 || i/cw != idx[k-1]/cw:
			runs++
			vt += m.GetHit + m.PinAccess + m.ApplyHit - m.GetHit
		case i != idx[k-1]:
			vt += m.PinAccess + m.ApplyHit - m.GetHit
		default:
			vt += m.PinAccess
		}
	}
	return vt, runs
}

// applyAtAgainstApply has every node combine the same scattered operands
// into two arrays, one ApplyAt call on a and one Apply per element on b,
// and fails unless the arrays agree everywhere afterwards. It returns,
// summed over the nodes, the misses the ApplyAt calls took, their runs on
// chunks homed on another node, and the shipped ops a's homes applied.
func applyAtAgainstApply(t *testing.T, c *cluster.Cluster, n int64, op Op, init uint64) (misses, remoteRuns, shipOps int64) {
	t.Helper()
	var sum [3]atomic.Int64
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
		for k, i := range idx {
			if ci := i / a.ChunkWords(); (k == 0 || ci != idx[k-1]/a.ChunkWords()) && a.homeOfChunk(ci) != node.ID() {
				sum[1].Add(1)
			}
		}
		before := ctx.Stats.Misses
		a.ApplyAt(ctx, ida, idx, src)
		sum[0].Add(ctx.Stats.Misses - before)
		for k, i := range idx {
			b.Apply(ctx, idb, i, src[k])
		}
		c.Barrier(ctx)
		sum[2].Add(a.Metrics.ShipOps.Load())
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
	return sum[0].Load(), sum[1].Load(), sum[2].Load()
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

// Under ship=on every run on a chunk homed elsewhere ships as one batch:
// the combined values are the same, and each such run is one miss and one
// shipped op at its home.
func TestApplyAtShipOnMatchesApply(t *testing.T) {
	c := tc(t, 3, func(cfg *cluster.Config) { cfg.Ship, cfg.Model = "on", vtime.Default() })
	misses, runs, shipOps := applyAtAgainstApply(t, c, 3*4*64, OpAddU64, 0)
	if runs == 0 {
		t.Fatal("no run landed on another node's chunk")
	}
	if misses != runs {
		t.Errorf("ApplyAt took %d misses for %d remote runs, want one per run", misses, runs)
	}
	if shipOps != runs {
		t.Errorf("homes applied %d shipped ops for %d remote runs, want one per run", shipOps, runs)
	}
}

// A shipped run folds every operand of a repeated index into one batch
// word, and the home adds that word into its current value: a run that
// touches only element 5 of a remote chunk, four times and beside another
// chunk's run, ships one word and one op per run. The add_f64 case repeats
// an index around another one and starts from a non-identity value, so
// the home computes x+(a+b+c) where per-element Apply computes
// ((x+a)+b)+c; its operands are exact in binary, so both orders agree.
func TestApplyAtShipFoldsRepeatedIndices(t *testing.T) {
	const cw = 64
	f := math.Float64bits
	for _, tcase := range []struct {
		name  string
		op    Op
		init  uint64
		idx   []int64
		src   []uint64
		saved int64    // ShipBytesSaved at the home
		want  []uint64 // a[5], a[7], a[cw+9]
	}{
		{"add_u64", OpAddU64, 0, []int64{5, 5, 5, 5, cw + 9}, []uint64{1, 2, 3, 4, 7},
			2 * 8 * (cw - 1), []uint64{10, 0, 7}},
		{"add_f64", OpAddF64, f(1.5), []int64{5, 7, 5, 5, cw + 9}, []uint64{f(0.25), f(0.5), f(1.25), f(2), f(3)},
			8*(cw-3) + 8*(cw-1), []uint64{f(5), f(2), f(4.5)}},
	} {
		t.Run(tcase.name, func(t *testing.T) {
			c := tc(t, 2, func(cfg *cluster.Config) { cfg.Ship, cfg.Model = "on", vtime.Default() })
			c.Run(func(n *cluster.Node) {
				a := New(n, 4*cw) // chunks 0 and 1 homed on node 0
				id := a.RegisterOp(tcase.op)
				ctx := n.NewCtx(0)
				a.Fill(ctx, tcase.init)
				c.Barrier(ctx)
				if n.ID() == 1 {
					a.ApplyAt(ctx, id, tcase.idx, tcase.src)
				}
				c.Barrier(ctx)
				if n.ID() == 0 {
					if got := a.Metrics.ShipOps.Load(); got != 2 {
						t.Errorf("home applied %d shipped ops, want one per run (2)", got)
					}
					if got := a.Metrics.ShipBytesSaved.Load(); got != tcase.saved {
						t.Errorf("shipped batches saved %d bytes, want %d: one word per offset", got, tcase.saved)
					}
					for k, i := range []int64{5, 7, cw + 9} {
						if got := a.Get(ctx, i); got != tcase.want[k] {
							t.Errorf("a[%d] = %#x, want %#x", i, got, tcase.want[k])
						}
					}
				}
				c.Barrier(ctx)
			})
		})
	}
}

// ApplyAt allocates nothing on the home's own chunks, nor, once the first
// call's Operated grants are in, on another node's: the pipeline runs on
// the thread's ring and the runs are found in place. Under ship=on the
// remote runs ship, and their batches, waiters and messages are pooled.
func TestApplyAtAllocatesNothing(t *testing.T) {
	skipIfNotMeasurable(t)
	for _, ship := range []string{"off", "on"} {
		t.Run("ship="+ship, func(t *testing.T) {
			c := tc(t, 2, func(cfg *cluster.Config) { cfg.Ship = ship })
			c.Run(func(n *cluster.Node) {
				a := New(n, 2*4*64)
				add := a.RegisterOp(OpAddU64)
				ctx := n.NewCtx(0)
				idx := scattered(rand.New(rand.NewSource(1)), 300, 4*64, 64) // node 0's chunks
				rep := repeated(rand.New(rand.NewSource(2)), 300, 4*64, 64)
				src := make([]uint64, len(rep))
				for v, where := range []string{"resident", "remote"} {
					c.Barrier(ctx)
					if n.ID() == v {
						if got := testing.AllocsPerRun(100, func() { a.ApplyAt(ctx, add, idx, src[:len(idx)]) }); got != 0 {
							t.Errorf("ApplyAt over %d chunks on %s chunks allocates %.2f per call, want 0", 4, where, got)
						}
						if got := testing.AllocsPerRun(100, func() { a.ApplyAt(ctx, add, rep, src) }); got != 0 {
							t.Errorf("ApplyAt folding repeats over %d chunks on %s chunks allocates %.2f per call, want 0", 4, where, got)
						}
					}
				}
				c.Barrier(ctx)
			})
		})
	}
}

// TestApplyAtFoldsRepeatedIndices: runs of adjacent repeated indices
// over home and remote chunks fold into one pinned Apply per element.
// Each node in turn calls ApplyAt twice, the second time on the Operated
// grants the first took, so its clock is the composed form exactly, and
// Combines still counts every operand; afterwards the array equals one
// combined by per-element Apply. The float operands are quarters, so a
// fold rounds no sum.
func TestApplyAtFoldsRepeatedIndices(t *testing.T) {
	const n = 2 * 4 * 64
	m := vtime.Default()
	for _, tcase := range []struct {
		op   Op
		init uint64
		val  func(*rand.Rand) uint64
	}{
		{OpAddU64, 0, func(r *rand.Rand) uint64 { return uint64(r.Intn(1000)) }},
		{OpAddF64, math.Float64bits(0), func(r *rand.Rand) uint64 { return math.Float64bits(float64(r.Intn(1000)) / 4) }},
		{OpMinU64, ^uint64(0), func(r *rand.Rand) uint64 { return uint64(r.Intn(1 << 20)) }},
	} {
		t.Run(tcase.op.Name, func(t *testing.T) {
			c := tc(t, 2, func(cfg *cluster.Config) { cfg.Model, cfg.Metrics = m, true })
			c.Run(func(node *cluster.Node) {
				a, b := New(node, n), New(node, n)
				ida, idb := a.RegisterOp(tcase.op), b.RegisterOp(tcase.op)
				ctx := node.NewCtx(0)
				a.Fill(ctx, tcase.init)
				b.Fill(ctx, tcase.init)
				rng := rand.New(rand.NewSource(int64(node.ID()) + 11))
				idx := repeated(rng, 200, n, a.ChunkWords())
				src := make([]uint64, len(idx))
				for k := range src {
					src[k] = tcase.val(rng)
				}
				want, _ := applyAtCost(m, idx, a.ChunkWords())
				for v := 0; v < 2; v++ {
					c.Barrier(ctx)
					if node.ID() != v {
						continue
					}
					a.ApplyAt(ctx, ida, idx, src)
					vt, combines := ctx.Clock.Now(), a.Metrics.Combines.Load()
					a.ApplyAt(ctx, ida, idx, src)
					if got := ctx.Clock.Now() - vt; got != want {
						t.Errorf("node %d: ApplyAt of %d operands advanced the clock %d, want %d", v, len(idx), got, want)
					}
					if got := a.Metrics.Combines.Load() - combines; got != int64(len(idx)) {
						t.Errorf("node %d: ApplyAt counted %d combines, want %d", v, got, len(idx))
					}
					for r := 0; r < 2; r++ {
						for k, i := range idx {
							b.Apply(ctx, idb, i, src[k])
						}
					}
				}
				c.Barrier(ctx)
				if node.ID() == 0 {
					for i := int64(0); i < n; i++ {
						if x, y := a.Get(ctx, i), b.Get(ctx, i); x != y {
							t.Errorf("element %d: ApplyAt gave %#x, Apply %#x", i, x, y)
							break
						}
					}
				}
				c.Barrier(ctx)
			})
		})
	}
}

// applyAtSchedule runs one ApplyAt on node 1 of a 2-node cluster at the
// fixed pipeline depth and the ship mode, over node 0's chunks in the
// order chunks lists them (two entries each), and returns the pipeline's
// issue/await interleaving as captureSchedule does.
func applyAtSchedule(t *testing.T, depth int, ship string, chunks []int64) string {
	t.Helper()
	c := tc(t, 2, func(cfg *cluster.Config) {
		cfg.Model, cfg.RuntimeThreads, cfg.PipelineDepth, cfg.Ship = vtime.Default(), 1, depth, ship
	})
	var sched []string
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64*int64(len(chunks)))
		add := a.RegisterOp(OpAddU64)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		if n.ID() == 1 {
			var idx []int64
			for _, ci := range chunks {
				idx = append(idx, ci*64+3, ci*64+9)
			}
			pipeHook = func(op byte, ci int64) {
				sched = append(sched, fmt.Sprintf("%c%d", op, ci))
			}
			a.ApplyAt(ctx, add, idx, make([]uint64, len(idx)))
			pipeHook = nil
		}
		c.Barrier(ctx)
	})
	return strings.Join(sched, " ")
}

// TestApplyAtPipelinesAscendingRuns: an ApplyAt whose runs ascend keeps
// PipelineDepth Operated grants — or, under ship=on, shipped batches — in
// flight ahead of its first await, the bulk ranges' fixed-depth schedule,
// while one whose runs descend drains the ring before each run (the
// ordering rule).
func TestApplyAtPipelinesAscendingRuns(t *testing.T) {
	const depth = 4
	up := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	var down []string
	for ci := int64(5); ci >= 0; ci-- {
		down = append(down, fmt.Sprintf("i%d a%d", ci, ci))
	}
	for _, ship := range []string{"off", "on"} {
		t.Run("ship="+ship, func(t *testing.T) {
			if got, want := applyAtSchedule(t, depth, ship, up), fixedSchedule(int64(len(up)), depth); got != want {
				t.Errorf("ascending ApplyAt schedule:\n got: %s\nwant: %s", got, want)
			}
			if got := applyAtSchedule(t, depth, ship, []int64{5, 4, 3, 2, 1, 0}); got != strings.Join(down, " ") {
				t.Errorf("descending ApplyAt schedule:\n got: %s\nwant: %s", got, strings.Join(down, " "))
			}
		})
	}
}

// TestPipelineDescendingRunsNoDeadlock is the shape that deadlocked
// before pipelines kept their pins in ascending order: on each of two
// nodes two threads issue ApplyAts whose runs interleave and descend over
// the same chunks, beside multi-chunk ApplyRanges and GetRanges that
// collapse those chunks again (reads go to the other node's half). A ring that pinned runs in input order
// could hold chunk x while awaiting y as another holds y awaiting x; the
// ordering rule leaves every wait pointing at a lower chunk
// (PROTOCOL.md). The combined values are checked against a count.
//
// The ship=on and ship=auto variants interleave shipped and pinned runs
// in one ring: each node pins its own chunks and, under ship=on, ships
// its runs on the other node's. A ship slot holds no reference but waits
// for its chunk's home, so it obeys the same rule.
func TestPipelineDescendingRunsNoDeadlock(t *testing.T) {
	t.Run("ship=off", func(t *testing.T) { descendingRunsNoDeadlock(t, "off", nil) })
	t.Run("ship=on", func(t *testing.T) { descendingRunsNoDeadlock(t, "on", nil) })
	t.Run("ship=auto", func(t *testing.T) { descendingRunsNoDeadlock(t, "auto", vtime.Default()) })
}

func descendingRunsNoDeadlock(t *testing.T, ship string, m *vtime.Model) {
	const (
		cw     = 32
		chunks = 8
		rounds = 150
	)
	c := tc(t, 2, func(cfg *cluster.Config) {
		cfg.ChunkWords, cfg.RuntimeThreads, cfg.CacheChunks = cw, 2, 2*chunks
		cfg.Ship, cfg.Model = ship, m
	})
	var want [chunks * cw]atomic.Int64
	c.Run(func(n *cluster.Node) {
		a := New(n, chunks*cw)
		add := a.RegisterOp(OpAddU64)
		root := n.NewCtx(0)
		c.Barrier(root)
		var wg sync.WaitGroup
		for th := 0; th < 2; th++ {
			ctx := n.NewCtx(th)
			rng := rand.New(rand.NewSource(int64(10*n.ID() + th)))
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]uint64, 3*cw)
				for r := 0; r < rounds; r++ {
					switch r % 3 {
					case 0:
						// Runs on chunks hi, lo, hi-1, lo+1, ...: each second run
						// descends, and the two threads' orders cross.
						var idx []int64
						for k := 0; k < chunks; k++ {
							ci := int64(k / 2)
							if k%2 == 0 {
								ci = chunks - 1 - ci
							}
							if th == 1 {
								ci = chunks - 1 - ci
							}
							for e := 0; e < 1+rng.Intn(3); e++ {
								idx = append(idx, ci*cw+rng.Int63n(cw))
							}
						}
						src := make([]uint64, len(idx))
						for k, i := range idx {
							src[k] = 1
							want[i].Add(1)
						}
						a.ApplyAt(ctx, add, idx, src)
					case 1:
						lo := rng.Int63n(chunks*cw - int64(len(buf)))
						for k := range buf {
							buf[k] = 1
							want[lo+int64(k)].Add(1)
						}
						a.ApplyRange(ctx, add, lo, buf)
					case 2:
						// Only the other node's half: a read of a chunk the reader's
						// own node combines into under RW would race the CAS.
						half := int64(chunks * cw / 2)
						a.GetRange(ctx, int64(1-n.ID())*half+rng.Int63n(half-int64(len(buf))), buf)
					}
				}
			}()
		}
		wg.Wait()
		c.Barrier(root)
		if n.ID() == 0 {
			for i := range want {
				if got := a.Get(root, int64(i)); got != uint64(want[i].Load()) {
					t.Errorf("a[%d] = %d, want %d", i, got, want[i].Load())
					break
				}
			}
		}
		c.Barrier(root)
	})
}

// On one node every run is a home hit: a run costs one acquisition at a
// Get hit's price, an element the pinned CAS, and an adjacent repeat of
// an element (scattered draws a few) a fold. Combines count operands,
// hits count acquisitions.
func TestApplyAtIsChargedPerRun(t *testing.T) {
	m := vtime.Default()
	c := tc(t, 1, func(cfg *cluster.Config) { cfg.Model, cfg.Metrics = m, true })
	c.Run(func(n *cluster.Node) {
		a := New(n, 8*64)
		add := a.RegisterOp(OpAddU64)
		ctx := n.NewCtx(0)
		idx := scattered(rand.New(rand.NewSource(3)), 500, a.Len(), a.ChunkWords())
		want, runs := applyAtCost(m, idx, a.ChunkWords())
		src := make([]uint64, len(idx))
		vt, hits, combines := ctx.Clock.Now(), a.Metrics.Hits.Load(), a.Metrics.Combines.Load()
		a.ApplyAt(ctx, add, idx, src)
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
