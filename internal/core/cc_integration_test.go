package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"darray/internal/cluster"
	"darray/internal/vtime"
)

// captureSchedule runs a remote GetRange over nChunks chunks on a
// 2-node cluster and returns the pipeline's issue/await interleaving as
// a string like "i0 i1 a0 i2 a1 ...". Single app thread, so the hook
// sequence is deterministic.
func captureSchedule(t *testing.T, cfg cluster.Config, nChunks int64) string {
	t.Helper()
	cfg.Nodes = 2
	cfg.ChunkWords = 64
	cfg.Model = vtime.Default()
	c := cluster.New(cfg)
	defer c.Close()
	var sched []string
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64*nChunks) // nChunks homed per node
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		if n.ID() == 1 {
			pipeHook = func(op byte, ci int64) {
				sched = append(sched, fmt.Sprintf("%c%d", op, ci))
			}
			dst := make([]uint64, 64*nChunks)
			a.GetRange(ctx, 0, dst) // node 0's whole partition: all remote
			pipeHook = nil
		}
		c.Barrier(ctx)
	})
	return strings.Join(sched, " ")
}

// fixedSchedule is the static-knob pipeline schedule over n chunks at
// depth K: K issues up front, then one issue immediately after each
// await until the range is exhausted.
func fixedSchedule(n, k int64) string {
	if k > n {
		k = n
	}
	var s []string
	for i := int64(0); i < k; i++ {
		s = append(s, fmt.Sprintf("i%d", i))
	}
	next := k
	for ci := int64(0); ci < n; ci++ {
		s = append(s, fmt.Sprintf("a%d", ci))
		if next < n {
			s = append(s, fmt.Sprintf("i%d", next))
			next++
		}
	}
	return strings.Join(s, " ")
}

// TestNoCCScheduleBitIdentical locks a default cluster, whose
// controllers are cc.Fixed, to the fixed-depth issue schedule the static knobs produced
// before congestion control existed: depth issues up front, then
// strictly one issue per completion. It is the same ring and the same
// window check the adaptive run goes through; any reaction of a fixed
// controller to its round trips breaks the exact interleaving.
func TestNoCCScheduleBitIdentical(t *testing.T) {
	const chunks, depth = 16, 4
	got := captureSchedule(t, cluster.Config{
		RuntimeThreads: 1, CacheChunks: 64,
		PipelineDepth: depth, PrefetchAhead: -1,
	}, chunks)
	if want := fixedSchedule(chunks, depth); got != want {
		t.Fatalf("cc.Fixed schedule diverged from fixed-depth behaviour:\n got: %s\nwant: %s", got, want)
	}
}

// TestDepthOneScheduleIsSerial locks what "serial" means now that every
// multi-chunk range runs through the ring: with every ceiling at one
// (the all-off rows of the stream figure) the schedule is exactly one
// chunk at a time — i0 a0 i1 a1 … — whichever policy holds the window.
func TestDepthOneScheduleIsSerial(t *testing.T) {
	const chunks = 8
	for _, adaptive := range []bool{true, false} {
		got := captureSchedule(t, cluster.Config{
			RuntimeThreads: 1, CacheChunks: 64,
			PipelineDepth: -1, TxBurst: -1, PrefetchAhead: -1, AdaptiveCC: adaptive,
		}, chunks)
		if want := fixedSchedule(chunks, 1); got != want {
			t.Fatalf("AdaptiveCC=%v: depth-1 schedule is not one chunk at a time:\n got: %s\nwant: %s", adaptive, got, want)
		}
	}
}

// TestAdaptiveSlowStartNarrowsBurst checks the adaptive policy's
// issue-side effect: with a deep static knob, the initial burst is the
// controller's initial window (4 chunks), not the configured depth —
// the knob is a ceiling, not a setting.
func TestAdaptiveSlowStartNarrowsBurst(t *testing.T) {
	const chunks, depth = 16, 12
	got := strings.Fields(captureSchedule(t, cluster.Config{
		RuntimeThreads: 1, CacheChunks: 64,
		PipelineDepth: depth, PrefetchAhead: -1, AdaptiveCC: true,
	}, chunks))
	burst := 0
	for _, ev := range got {
		if ev[0] != 'i' {
			break
		}
		burst++
	}
	if burst != 4 {
		t.Fatalf("adaptive initial burst = %d issues, want the initial window 4 (schedule %v)", burst, got)
	}
	// The schedule still covers every chunk in order.
	var issues, awaits int
	for _, ev := range got {
		switch ev[0] {
		case 'i':
			issues++
		case 'a':
			awaits++
		}
	}
	if issues != chunks || awaits != chunks {
		t.Fatalf("schedule covered %d issues / %d awaits, want %d each", issues, awaits, chunks)
	}
}

// TestPrefetchDemandCredit exercises the spare-credit cap: speculation
// is refused once in-flight demand exhausts the window (here a fixed
// one, the depth itself), and allowed again when demand drains.
func TestPrefetchDemandCredit(t *testing.T) {
	c := tc(t, 2, func(cfg *cluster.Config) {
		cfg.PipelineDepth = 4
	})
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64*8)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		if n.ID() == 1 {
			if got := a.spareCredit(ctx, 0); got != 4 {
				t.Errorf("idle spare credit = %d, want the fixed depth 4", got)
			}
			for i := 0; i < 4; i++ {
				ctx.DemandStart()
			}
			if got := a.spareCredit(ctx, 0); got != 0 {
				t.Errorf("saturated spare credit = %d, want 0", got)
			}
			before := a.Metrics.PrefetchThrottled.Load()
			a.speculate(ctx, 1) // remote, absent — only credit can refuse it
			if got := a.Metrics.PrefetchThrottled.Load(); got != before+1 {
				t.Errorf("saturated speculate: throttled %d -> %d, want +1", before, got)
			}
			for i := 0; i < 4; i++ {
				ctx.DemandEnd()
			}
			pf := a.Metrics.Prefetches.Load()
			a.speculate(ctx, 1)
			for i := 0; a.Metrics.Prefetches.Load() != pf+1; i++ {
				if i > 10000 {
					t.Error("drained speculate never issued a prefetch")
					break
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
		c.Barrier(ctx)
	})
}

// TestAdaptivePrefetchCreditTracksWindow checks the adaptive half of
// the credit: a fresh controller's window (initial window 4) bounds
// speculation even when the static depth is larger.
func TestAdaptivePrefetchCreditTracksWindow(t *testing.T) {
	c := tc(t, 2, func(cfg *cluster.Config) { cfg.PipelineDepth, cfg.AdaptiveCC = 16, true })
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64*8)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		if n.ID() == 1 {
			if got := a.spareCredit(ctx, 0); got != 4 {
				t.Errorf("fresh adaptive spare credit = %d, want initial window 4", got)
			}
		}
		c.Barrier(ctx)
	})
}

// TestAdaptiveBulkCorrectness streams SetRange/GetRange across node
// boundaries under the adaptive policy and a small cache, checking the
// adaptive schedule never corrupts data or leaks pins.
func TestAdaptiveBulkCorrectness(t *testing.T) {
	c := tc(t, 3, func(cfg *cluster.Config) { cfg.CacheChunks, cfg.AdaptiveCC = 16, true })
	var handle *Array
	c.Run(func(n *cluster.Node) {
		const words = 3 * 64 * 8
		a := New(n, words)
		if n.ID() == 0 {
			handle = a
		}
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		if n.ID() == 0 {
			src := make([]uint64, words)
			for i := range src {
				src[i] = uint64(13*i + 5)
			}
			a.SetRange(ctx, 0, src)
		}
		c.Barrier(ctx)
		got := make([]uint64, words)
		a.GetRange(ctx, 0, got)
		for i := range got {
			if got[i] != uint64(13*i+5) {
				t.Errorf("node %d: [%d] = %d, want %d", n.ID(), i, got[i], 13*i+5)
				return
			}
		}
		c.Barrier(ctx)
	})
	if err := ValidateQuiesced(handle.Instances()); err != nil {
		t.Fatal(err)
	}
}
