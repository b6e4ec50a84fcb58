package core

import (
	"sync"
	"testing"
	"time"

	"darray/internal/cluster"
	"darray/internal/fault"
	"darray/internal/trace"
	"darray/internal/vtime"
)

// TestSpanLinkageUnderFaults drives traced cross-node traffic through a
// lossy, duplicating wire and checks the causal span graph survives:
// retransmitted deliveries surface as retransmit-stage spans, and every
// non-root span still links to a live parent in the same trace.
func TestSpanLinkageUnderFaults(t *testing.T) {
	trc := trace.New(0)
	trc.Enable(1)
	plan := fault.New(fault.Config{
		Seed: 11, Nodes: 2, DropProb: 0.15, DupProb: 0.10, RetryBudget: 64,
	})
	c := cluster.New(cluster.Config{
		Nodes: 2, ChunkWords: 64, CacheChunks: 64,
		Faults: plan, Model: vtime.Default(), Tracer: trc,
	})
	defer c.Close()

	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64*4)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		// Ping-pong writes: every op needs a remote round trip, so the
		// lossy wire gets plenty of traced deliveries to retransmit.
		for i := int64(0); i < 2*64*4; i += 16 {
			a.Set(ctx, i, uint64(n.ID())+1)
			_ = a.Get(ctx, (i+64)%(2*64*4))
		}
		c.Barrier(ctx)
		if err := ctx.Err(); err != nil {
			t.Errorf("node %d degraded: %v", n.ID(), err)
		}
	})

	if s := plan.Stats(); s.Drops == 0 {
		t.Fatalf("plan injected no drops: %+v", s)
	}
	spans := trc.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	retrans := 0
	byID := make(map[uint64]trace.Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
		if s.Stage == trace.StageRetransmit {
			retrans++
			if s.Dur() <= 0 {
				t.Errorf("retransmit span with non-positive duration: %v", s)
			}
		}
	}
	if retrans == 0 {
		t.Error("lossy wire produced no retransmit-stage spans")
	}
	if trc.Dropped() > 0 {
		t.Skipf("ring dropped %d spans; linkage not checkable", trc.Dropped())
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %x (%s) has dangling parent %x", s.ID, s.Name, s.Parent)
		}
		if p.Trace != s.Trace {
			t.Fatalf("span %x links across traces: %x vs parent %x", s.ID, s.Trace, p.Trace)
		}
	}
}

// TestMergedTraceConcurrent reads the merged trace while application
// threads are still generating events; the race detector must stay
// quiet (each ring is read on the runtime that writes it) and every
// returned event must be well-formed and in order.
func TestMergedTraceConcurrent(t *testing.T) {
	c := tc(t, 2)
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64*4)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)

		var wg sync.WaitGroup
		stop := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				evs := MergedTrace(a.Instances()...)
				for i, e := range evs {
					if e.Seq == 0 || e.Kind >= numKinds {
						t.Errorf("malformed event %v", e)
						return
					}
					if i == 0 {
						continue
					}
					p := evs[i-1]
					if e.VT < p.VT || (e.VT == p.VT && e.Node == p.Node && e.Runtime == p.Runtime && e.Seq <= p.Seq) {
						t.Errorf("merged trace out of order: %v then %v", p, e)
						return
					}
				}
			}
		}()
		for i := int64(0); i < 2*64*4; i += 8 {
			a.Set(ctx, i, uint64(i))
			_ = a.Get(ctx, (i+64)%(2*64*4))
		}
		close(stop)
		wg.Wait()
		c.Barrier(ctx)
	})
}

// TestTracingOffOverhead gates the fast path with a tracer attached but
// disabled: identical allocation behaviour to no tracer at all, zero
// spans recorded, and no order-of-magnitude time regression.
func TestTracingOffOverhead(t *testing.T) {
	run := func(trc *trace.Tracer) (allocs float64, elapsed time.Duration) {
		c := cluster.New(cluster.Config{
			Nodes: 1, ChunkWords: 64, CacheChunks: 64, Tracer: trc,
		})
		defer c.Close()
		c.Run(func(n *cluster.Node) {
			a := New(n, 64*64)
			ctx := n.NewCtx(0)
			for i := int64(0); i < 64*64; i++ {
				a.Set(ctx, i, uint64(i))
			}
			allocs = testing.AllocsPerRun(20, func() {
				for i := int64(0); i < 64*64; i++ {
					_ = a.Get(ctx, i)
				}
			})
			start := time.Now()
			for r := 0; r < 50; r++ {
				for i := int64(0); i < 64*64; i++ {
					_ = a.Get(ctx, i)
				}
			}
			elapsed = time.Since(start)
		})
		return allocs, elapsed
	}

	off := trace.New(0) // attached, never enabled
	allocsOff, timeOff := run(off)
	allocsNil, timeNil := run(nil)

	if allocsOff != allocsNil {
		t.Errorf("allocs/run with disabled tracer = %v, without tracer = %v", allocsOff, allocsNil)
	}
	if n := len(off.Spans()); n != 0 {
		t.Errorf("disabled tracer recorded %d spans", n)
	}
	// Generous bound: a disabled tracer costs one atomic load per op, so
	// anything close to an order of magnitude signals spans being cut on
	// the fast path. Loose enough to survive a noisy CI host.
	if timeOff > 10*timeNil+10*time.Millisecond {
		t.Errorf("disabled tracer slowed seq reads: %v vs %v", timeOff, timeNil)
	}
}
