package core

import (
	"sync"
	"testing"

	"darray/internal/cluster"
	"darray/internal/vtime"
)

// Estimator unit tests: the flip thresholds and hysteresis are the
// contract the adaptive mode rests on, so they are pinned directly.

// TestShipEstimatorFlipsUp: multi-node churny traffic arriving fast
// must flip to shipped, exactly once.
func TestShipEstimatorFlipsUp(t *testing.T) {
	var e shipEstimator
	vt := int64(0)
	flips := 0
	for k := 0; k < 6*shipWindow; k++ {
		vt += 1_000 // 1 µs between events: far inside the hot span
		if e.note(1+k%3, 1, vt) {
			flips++
		}
	}
	if !e.shipped {
		t.Fatal("hot 3-requester traffic never flipped to shipped")
	}
	if flips != 1 {
		t.Fatalf("flips = %d, want exactly 1 (hysteresis must hold the mode)", flips)
	}
}

// TestShipEstimatorIgnoresSingleRequester: one node hammering a chunk
// is the cached path's best case — no requester diversity, no flip.
func TestShipEstimatorIgnoresSingleRequester(t *testing.T) {
	var e shipEstimator
	vt := int64(0)
	for k := 0; k < 20*shipWindow; k++ {
		vt += 1_000
		if e.note(2, 1, vt) {
			t.Fatal("single-requester traffic flipped the mode")
		}
	}
	if e.shipped {
		t.Fatal("shipped with only one requester")
	}
}

// TestShipEstimatorIgnoresSlowTraffic: every node touches a cold chunk
// eventually; only a fast window may flip it.
func TestShipEstimatorIgnoresSlowTraffic(t *testing.T) {
	var e shipEstimator
	vt := int64(0)
	for k := 0; k < 20*shipWindow; k++ {
		vt += 1_000_000 // 1 ms between events: window span 15 ms >> hot
		if e.note(1+k%3, 1, vt) {
			t.Fatal("slow traffic flipped the mode")
		}
	}
	if e.shipped {
		t.Fatal("shipped on slow traffic")
	}
}

// TestShipEstimatorNeedsChurn: diverse fast requesters whose grants
// never churn (steady-state combining) stay cached.
func TestShipEstimatorNeedsChurn(t *testing.T) {
	var e shipEstimator
	vt := int64(0)
	for k := 0; k < 20*shipWindow; k++ {
		vt += 1_000
		if e.note(1+k%3, 0, vt) {
			t.Fatal("churn-free traffic flipped the mode")
		}
	}
}

// TestShipEstimatorFlipsDownWhenCold: a shipped chunk whose traffic
// cools past the cold threshold must flip back, once, and stay cached.
func TestShipEstimatorFlipsDownWhenCold(t *testing.T) {
	var e shipEstimator
	vt := int64(0)
	for k := 0; k < 6*shipWindow; k++ {
		vt += 1_000
		e.note(1+k%3, 1, vt)
	}
	if !e.shipped {
		t.Fatal("setup: never flipped up")
	}
	flips := 0
	for k := 0; k < 20*shipWindow; k++ {
		vt += 200_000 // window span 3.2 ms: past the cold threshold
		if e.note(1+k%3, 1, vt) {
			flips++
		}
	}
	if e.shipped {
		t.Fatal("stayed shipped after the chunk went cold")
	}
	if flips != 1 {
		t.Fatalf("flips = %d, want exactly 1", flips)
	}
}

// TestShipEstimatorNoFlapping: traffic hovering between the hot and
// cold spans must not oscillate — the asymmetric thresholds are there
// precisely so the boundary is sticky.
func TestShipEstimatorNoFlapping(t *testing.T) {
	var e shipEstimator
	vt := int64(0)
	flips := 0
	for k := 0; k < 40*shipWindow; k++ {
		// Alternate ~200 µs and ~800 µs windows: the EWMA hovers between
		// the 400 µs hot gate and the 1.6 ms cold gate.
		if (k/shipWindow)%2 == 0 {
			vt += 12_500
		} else {
			vt += 50_000
		}
		if e.note(1+k%3, 1, vt) {
			flips++
		}
	}
	if flips > 2 {
		t.Fatalf("estimator flapped: %d flips over 40 windows", flips)
	}
}

// TestShipAmortizedFlushVetoesFlip: the hot, churny, 3-requester
// traffic of TestShipEstimatorFlipsUp, with one recalled flush per
// window. Flushes of 0-1 operands (a hot RMW chunk's) still flip it to
// shipped, once; a flush of shipAmortized operands (bulk-synchronous
// combining's) marks every window amortized and the chunk stays cached.
func TestShipAmortizedFlushVetoesFlip(t *testing.T) {
	run := func(operands int) (flips int, shipped bool) {
		var e shipEstimator
		vt := int64(0)
		for k := 0; k < 6*shipWindow; k++ {
			vt += 1_000
			if k%shipWindow == 0 {
				e.flushed(operands)
			}
			if e.note(1+k%3, 1, vt) {
				flips++
			}
		}
		return flips, e.shipped
	}
	for _, n := range []int{0, 1} {
		if flips, shipped := run(n); flips != 1 || !shipped {
			t.Errorf("%d-operand flushes: flips=%d shipped=%v, want one flip to shipped", n, flips, shipped)
		}
	}
	if flips, shipped := run(shipAmortized); flips != 0 || shipped {
		t.Errorf("%d-operand flushes: flips=%d shipped=%v, want the chunk to stay cached", shipAmortized, flips, shipped)
	}
}

// ---------------------------------------------------------------------------
// Whole-array parity and crossover behaviour.

// runShipWorkload runs a seeded RMW mix (every node reads then combines
// into the target element) and returns the final array contents plus
// the cluster-wide ship op/flip counters. hot sends 60% of the traffic
// to the first chunk over a small array (requester-interleaved, the
// pattern the estimator exists for); otherwise traffic is uniform over
// an array big enough that no chunk's window ever runs hot.
func runShipWorkload(t *testing.T, ship string, hot bool) ([]uint64, int64, int64) {
	t.Helper()
	const (
		chunkWords = 64
		opsPerNode = 2000
	)
	elems := int64(chunkWords * 256)
	if hot {
		elems = chunkWords * 32
	}
	c := cluster.New(cluster.Config{
		Nodes: 6, RuntimeThreads: 2,
		ChunkWords: chunkWords, CacheChunks: 64,
		Model: vtime.Default(),
		Ship:  ship,
	})
	defer c.Close()
	vals := make([]uint64, elems)
	var shipOps, shipFlips int64
	var mu sync.Mutex

	c.Run(func(n *cluster.Node) {
		a := New(n, elems)
		add := a.RegisterOp(OpAddU64)
		root := n.NewCtx(0)
		rng := root.Rng
		rng.Seed(77 + int64(n.ID()))
		c.Barrier(root)
		for k := 0; k < opsPerNode; k++ {
			var i int64
			if hot && rng.Float64() < 0.6 {
				i = int64(rng.Intn(chunkWords))
			} else {
				i = rng.Int63n(elems)
			}
			_ = a.Get(root, i)
			a.Apply(root, add, i, 1)
		}
		c.Barrier(root)
		if n.ID() == 0 {
			for i := int64(0); i < elems; i++ {
				vals[i] = a.Get(root, i)
			}
		}
		c.Barrier(root)
		mu.Lock()
		shipOps += a.Metrics.ShipOps.Load()
		shipFlips += a.Metrics.ShipFlips.Load()
		mu.Unlock()
	})
	return vals, shipOps, shipFlips
}

// TestShippingOffParity locks the ablation contract: ship=off takes the
// pre-shipping code path (no shipped ops, no estimator flips, exact
// results), auto on uniform traffic never flips (so it behaves as off),
// and every mode agrees on the final state because shipped ops commute.
func TestShippingOffParity(t *testing.T) {
	offHot, ops, flips := runShipWorkload(t, "off", true)
	if ops != 0 || flips != 0 {
		t.Fatalf("ship=off shipped anyway: ops=%d flips=%d", ops, flips)
	}
	onHot, ops, _ := runShipWorkload(t, "on", true)
	if ops == 0 {
		t.Fatal("ship=on hot run shipped nothing")
	}
	autoHot, _, _ := runShipWorkload(t, "auto", true)
	for i := range offHot {
		if offHot[i] != onHot[i] || offHot[i] != autoHot[i] {
			t.Fatalf("modes disagree at [%d]: off=%d on=%d auto=%d",
				i, offHot[i], onHot[i], autoHot[i])
		}
	}

	_, ops, flips = runShipWorkload(t, "auto", false)
	if flips != 0 {
		t.Errorf("uniform traffic flipped the estimator %d times; auto must degenerate to off", flips)
	}
	if ops != 0 {
		t.Errorf("uniform auto run shipped %d ops", ops)
	}
}

// TestShippingAutoFlipsHotChunk: the estimator must actually find the
// hot chunk — under the same contended mix that TestShippingOffParity
// checks for correctness, auto mode must flip and ship.
func TestShippingAutoFlipsHotChunk(t *testing.T) {
	_, ops, flips := runShipWorkload(t, "auto", true)
	if flips == 0 {
		t.Fatal("hot-chunk RMW mix never flipped the estimator")
	}
	if ops == 0 {
		t.Fatal("estimator flipped but nothing shipped")
	}
}
